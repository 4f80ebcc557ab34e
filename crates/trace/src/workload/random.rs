//! Uniform and Zipfian random-access workloads.
//!
//! Uniform access over a region yields the linear miss-ratio curve
//! `mr(c) ≈ 1 − c/region`; Zipfian access yields a smooth convex decay —
//! the friendly case where STTW and the DP agree. The Zipf sampler
//! precomputes the popularity CDF once and draws by binary search, so
//! per-access cost is `O(log region)` with no allocation.

use super::AccessStream;
use crate::model::Block;
use crate::rng::Rng;

/// Stream for [`super::WorkloadSpec::UniformRandom`].
#[derive(Clone, Debug)]
pub struct UniformStream {
    region: u64,
    rng: Rng,
}

impl UniformStream {
    /// Uniform accesses over `region` blocks (minimum 1).
    pub fn new(region: u64, rng: Rng) -> Self {
        UniformStream {
            region: region.max(1),
            rng,
        }
    }
}

impl AccessStream for UniformStream {
    fn next_block(&mut self) -> Block {
        self.rng.below(self.region)
    }
}

/// Stream for [`super::WorkloadSpec::Zipfian`].
#[derive(Clone, Debug)]
pub struct ZipfStream {
    /// Cumulative popularity; `cdf[i]` = P(rank ≤ i).
    cdf: Vec<f64>,
    rng: Rng,
}

impl ZipfStream {
    /// Zipf(`alpha`) accesses over `region` blocks. `alpha = 0` is
    /// uniform; larger values concentrate on low ranks.
    pub fn new(region: u64, alpha: f64, rng: Rng) -> Self {
        let region = region.max(1) as usize;
        let mut cdf = Vec::with_capacity(region);
        let mut acc = 0.0f64;
        for rank in 1..=region {
            acc += (rank as f64).powf(-alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        ZipfStream { cdf, rng }
    }
}

impl AccessStream for ZipfStream {
    fn next_block(&mut self) -> Block {
        let u = self.rng.unit_f64();
        // First index with cdf >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) as Block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_stays_in_region() {
        let mut s = UniformStream::new(10, rng(1));
        for _ in 0..1000 {
            assert!(s.next_block() < 10);
        }
    }

    #[test]
    fn uniform_covers_region() {
        let mut s = UniformStream::new(8, rng(2));
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[s.next_block() as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all blocks should appear");
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut s = ZipfStream::new(1000, 1.0, rng(3));
        let mut low = 0;
        let n = 20_000;
        for _ in 0..n {
            if s.next_block() < 10 {
                low += 1;
            }
        }
        // With alpha=1 over 1000 items, the top-10 mass is
        // H(10)/H(1000) ≈ 2.93/7.49 ≈ 39%.
        let frac = low as f64 / n as f64;
        assert!(
            (0.30..0.50).contains(&frac),
            "top-10 fraction {frac} out of expected band"
        );
    }

    #[test]
    fn zipf_zero_alpha_is_roughly_uniform() {
        let mut s = ZipfStream::new(4, 0.0, rng(4));
        let mut counts = [0u32; 4];
        for _ in 0..8000 {
            counts[s.next_block() as usize] += 1;
        }
        for &c in &counts {
            assert!((1700..2300).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_single_block_region() {
        let mut s = ZipfStream::new(1, 1.2, rng(5));
        assert_eq!(s.next_block(), 0);
    }
}
