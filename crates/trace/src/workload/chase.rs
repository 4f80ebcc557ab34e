//! Pointer-chase workload: traversal of one random cyclic permutation.
//!
//! Like the sequential loop, a full-cycle chase has a cliff miss-ratio
//! curve at the chain length; unlike the loop, consecutive addresses are
//! uncorrelated, which exercises the analysis code with non-streaming
//! access order (and would defeat any stride prefetcher in a hardware
//! analogue).

use super::AccessStream;
use crate::model::Block;
use crate::rng::Rng;

/// Stream for [`super::WorkloadSpec::PointerChase`].
#[derive(Clone, Debug)]
pub struct PointerChaseStream {
    /// `next[i]` = successor of block `i` in the cycle.
    next: Vec<u32>,
    cur: u32,
}

impl PointerChaseStream {
    /// Builds one random cyclic permutation of `region` blocks
    /// (minimum 1, clamped to `u32` range).
    pub fn new(region: u64, mut rng: Rng) -> Self {
        let n = region.clamp(1, u32::MAX as u64 - 1) as u32;
        // A random cycle via a shuffled visiting order.
        let mut order: Vec<u32> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut next = vec![0u32; n as usize];
        for w in 0..n as usize {
            let from = order[w];
            let to = order[(w + 1) % n as usize];
            next[from as usize] = to;
        }
        PointerChaseStream {
            next,
            cur: order[0],
        }
    }
}

impl AccessStream for PointerChaseStream {
    fn next_block(&mut self) -> Block {
        let out = self.cur;
        self.cur = self.next[self.cur as usize];
        out as Block
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_block_once_per_cycle() {
        let n = 64u64;
        let mut s = PointerChaseStream::new(n, Rng::seed_from_u64(11));
        let mut seen = vec![false; n as usize];
        for _ in 0..n {
            let b = s.next_block() as usize;
            assert!(!seen[b], "block {b} repeated within one cycle");
            seen[b] = true;
        }
        assert!(seen.iter().all(|&x| x));
        // Second cycle revisits in the same order.
        let first_again = s.next_block();
        let mut s2 = PointerChaseStream::new(n, Rng::seed_from_u64(11));
        assert_eq!(first_again, s2.next_block());
    }

    #[test]
    fn single_block_chain() {
        let mut s = PointerChaseStream::new(1, Rng::seed_from_u64(0));
        assert_eq!(s.next_block(), 0);
        assert_eq!(s.next_block(), 0);
    }
}
