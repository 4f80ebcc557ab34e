//! Composite workloads: phase alternation and probabilistic mixtures.
//!
//! [`PhasedStream`] is the paper's Figure 1 mechanism — a program whose
//! working set alternates over time, the one case where partition-sharing
//! can genuinely beat pure partitioning (when phases of co-run programs
//! interlock). [`MixtureStream`] blends reference streams statistically,
//! which is how the spec-like profiles compose a low-miss loop core with
//! a long random tail.

use super::AccessStream;
use crate::model::Block;
use crate::rng::Rng;

/// Cycles through sub-streams, running each for a fixed access budget.
///
/// Sub-streams share the address space: a phase that touches block `b`
/// touches the *same* block `b` as any other phase.
pub struct PhasedStream {
    phases: Vec<(Box<dyn AccessStream>, u64)>,
    current: usize,
    used: u64,
}

impl PhasedStream {
    /// Creates the cycle from `(stream, accesses per phase)` pairs.
    ///
    /// # Panics
    /// Panics if `phases` is empty or any phase length is 0.
    pub fn new(phases: Vec<(Box<dyn AccessStream>, u64)>) -> Self {
        assert!(!phases.is_empty(), "PhasedStream needs at least one phase");
        assert!(
            phases.iter().all(|(_, len)| *len > 0),
            "phase lengths must be positive"
        );
        PhasedStream {
            phases,
            current: 0,
            used: 0,
        }
    }
}

impl AccessStream for PhasedStream {
    fn next_block(&mut self) -> Block {
        if self.used == self.phases[self.current].1 {
            self.used = 0;
            self.current = (self.current + 1) % self.phases.len();
        }
        self.used += 1;
        self.phases[self.current].0.next_block()
    }
}

/// Per-access weighted choice among sub-streams, each offset into its own
/// address sub-space.
pub struct MixtureStream {
    /// `(cumulative weight, stream, address offset)`.
    parts: Vec<(f64, Box<dyn AccessStream>, u64)>,
    total_weight: f64,
    rng: Rng,
}

impl MixtureStream {
    /// Creates the mixture from `(weight, stream, address offset)` parts.
    ///
    /// # Panics
    /// Panics if `parts` is empty or all weights are ≤ 0.
    pub fn new(parts: Vec<(f64, Box<dyn AccessStream>, u64)>, rng: Rng) -> Self {
        assert!(!parts.is_empty(), "MixtureStream needs at least one part");
        let mut acc = 0.0;
        let parts: Vec<_> = parts
            .into_iter()
            .map(|(w, s, off)| {
                acc += w.max(0.0);
                (acc, s, off)
            })
            .collect();
        assert!(acc > 0.0, "MixtureStream needs positive total weight");
        MixtureStream {
            parts,
            total_weight: acc,
            rng,
        }
    }
}

impl AccessStream for MixtureStream {
    fn next_block(&mut self) -> Block {
        let u = self.rng.unit_f64() * self.total_weight;
        let idx = self.parts.partition_point(|(cum, _, _)| *cum <= u);
        let idx = idx.min(self.parts.len() - 1);
        let (_, stream, offset) = &mut self.parts[idx];
        stream.next_block() + *offset
    }
}

#[cfg(test)]
mod tests {
    use super::super::sequential::SequentialStream;
    use super::*;

    #[test]
    fn phased_switches_on_budget() {
        let a = Box::new(SequentialStream::new(2));
        let b = Box::new(SequentialStream::new(10));
        let mut p = PhasedStream::new(vec![(a, 3), (b, 2)]);
        let got: Vec<u64> = (0..10).map(|_| p.next_block()).collect();
        // a: 0 1 0 | b: 0 1 | a: 1 0 1 | b: 2 3
        assert_eq!(got, vec![0, 1, 0, 0, 1, 1, 0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn phased_empty_panics() {
        let _ = PhasedStream::new(vec![]);
    }

    #[test]
    fn mixture_respects_weights() {
        let a = Box::new(SequentialStream::new(1)); // emits 0 + offset 0
        let b = Box::new(SequentialStream::new(1)); // emits 0 + offset 100
        let mut m = MixtureStream::new(vec![(0.9, a, 0), (0.1, b, 100)], Rng::seed_from_u64(42));
        let n = 10_000;
        let heavy = (0..n).filter(|_| m.next_block() < 100).count();
        let frac = heavy as f64 / n as f64;
        assert!((0.87..0.93).contains(&frac), "weight-0.9 fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn mixture_zero_weight_panics() {
        let a = Box::new(SequentialStream::new(1));
        let _ = MixtureStream::new(vec![(0.0, a, 0)], Rng::seed_from_u64(0));
    }
}
