//! Parametric synthetic workloads.
//!
//! Each workload is a deterministic function of its parameters and a seed,
//! exposed in two forms: a one-shot [`WorkloadSpec::generate`] that
//! materializes a [`Trace`], and a stateful [`AccessStream`] for composite
//! workloads ([`WorkloadSpec::Phased`], [`WorkloadSpec::Mixture`]) and for
//! on-line co-run interleaving.
//!
//! The family is chosen to span the miss-ratio-curve shapes the paper's
//! evaluation depends on:
//!
//! | Workload | MRC shape |
//! |---|---|
//! | [`WorkloadSpec::SequentialLoop`] | cliff at the working-set size (thrashes below, hits above) — the canonical **non-convex** MRC that breaks STTW |
//! | [`WorkloadSpec::Strided`] | same cliff, but spatially strided — stresses set-mapping uniformity |
//! | [`WorkloadSpec::UniformRandom`] | linear ramp `1 − c/region` |
//! | [`WorkloadSpec::Zipfian`] | smooth convex decay |
//! | [`WorkloadSpec::PointerChase`] | cliff (like the loop, but data-dependent order) |
//! | [`WorkloadSpec::Stencil`] | staircase with knees at row and plane sizes |
//! | [`WorkloadSpec::WorkingSetWalk`] | soft knee around the window size |
//! | [`WorkloadSpec::Phased`] | time-varying (Figure 1's cores 3/4) |
//! | [`WorkloadSpec::Mixture`] | weighted blend of the above |

mod chase;
mod composite;
mod random;
mod sequential;
mod stencil;
mod walk;

pub use chase::PointerChaseStream;
pub use composite::{MixtureStream, PhasedStream};
pub use random::{UniformStream, ZipfStream};
pub use sequential::{SequentialStream, StridedStream};
pub use stencil::StencilStream;
pub use walk::WalkStream;

use crate::model::{Block, Trace};
use crate::rng::Rng;

/// The largest region a [`WorkloadSpec::Zipfian`] or
/// [`WorkloadSpec::PointerChase`] should be given: those two build an
/// O(region) table up front (the other kinds stream), and this bound keeps
/// it to ~512 MB.
pub const MAX_TABLE_REGION: u64 = 1 << 26;

/// A stateful, infinite stream of block accesses.
///
/// Streams are deterministic given the spec and seed they were built from.
pub trait AccessStream: Send {
    /// Produces the next accessed block.
    fn next_block(&mut self) -> Block;

    /// Fills `out` with the next `n` accesses (convenience wrapper).
    fn fill(&mut self, n: usize, out: &mut Vec<Block>) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.next_block());
        }
    }
}

/// A declarative workload description.
///
/// # Examples
///
/// ```
/// use cps_trace::WorkloadSpec;
/// let spec = WorkloadSpec::SequentialLoop { working_set: 64 };
/// let t = spec.generate(1000, 42);
/// assert_eq!(t.len(), 1000);
/// assert_eq!(t.distinct(), 64);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Cyclic sequential sweep over `working_set` blocks:
    /// `0, 1, …, ws−1, 0, 1, …`. Thrashes LRU below `ws`, hits above.
    SequentialLoop {
        /// Number of distinct blocks in the loop.
        working_set: u64,
    },
    /// Strided sweep: blocks `0, stride, 2·stride, …` modulo `region`,
    /// switching lanes between passes. Temporally a loop (same cliff
    /// MRC), spatially non-contiguous — the set-conflict stressor.
    Strided {
        /// Total region swept.
        region: u64,
        /// Distance between consecutive accesses.
        stride: u64,
    },
    /// Independent uniform accesses over `region` blocks.
    UniformRandom {
        /// Size of the address region.
        region: u64,
    },
    /// Zipf-distributed accesses over `region` blocks with exponent
    /// `alpha` (popularity `∝ 1/rank^alpha`).
    Zipfian {
        /// Size of the address region.
        region: u64,
        /// Skew exponent; 0 degenerates to uniform.
        alpha: f64,
    },
    /// Traversal of one random cyclic permutation of `region` blocks.
    PointerChase {
        /// Number of blocks in the chain.
        region: u64,
    },
    /// Row-major 3-point vertical stencil sweep over a `rows × cols`
    /// grid: visiting `(r, c)` touches rows `r−1`, `r`, `r+1` at column
    /// `c`. Reuses within a row pass and across adjacent rows.
    Stencil {
        /// Grid rows.
        rows: u64,
        /// Grid columns.
        cols: u64,
    },
    /// A working set of size `window` that drifts through `region`: the
    /// stream dwells for `dwell` uniform accesses, then advances the
    /// window by half its size (wrapping).
    WorkingSetWalk {
        /// Total address region the window drifts through.
        region: u64,
        /// Active window size.
        window: u64,
        /// Accesses before the window advances.
        dwell: u64,
    },
    /// Runs each sub-workload for its given number of accesses, cycling.
    /// Sub-workloads share one address space so phases can reuse each
    /// other's data (Figure 1 style).
    Phased {
        /// `(workload, accesses per phase)` pairs, cycled in order.
        phases: Vec<(WorkloadSpec, u64)>,
    },
    /// Per-access weighted choice among sub-workloads; each sub-workload
    /// is placed in its own disjoint address sub-space.
    Mixture {
        /// `(weight, workload)` pairs; weights need not sum to 1.
        parts: Vec<(f64, WorkloadSpec)>,
    },
}

impl WorkloadSpec {
    /// Instantiates the stateful stream for this spec.
    ///
    /// Equal `(spec, seed)` pairs produce identical streams.
    pub fn stream(&self, seed: u64) -> Box<dyn AccessStream> {
        let rng = Rng::seed_from_u64(seed);
        match self {
            WorkloadSpec::SequentialLoop { working_set } => {
                Box::new(SequentialStream::new(*working_set))
            }
            WorkloadSpec::Strided { region, stride } => {
                Box::new(StridedStream::new(*region, *stride))
            }
            WorkloadSpec::UniformRandom { region } => Box::new(UniformStream::new(*region, rng)),
            WorkloadSpec::Zipfian { region, alpha } => {
                Box::new(ZipfStream::new(*region, *alpha, rng))
            }
            WorkloadSpec::PointerChase { region } => {
                Box::new(PointerChaseStream::new(*region, rng))
            }
            WorkloadSpec::Stencil { rows, cols } => Box::new(StencilStream::new(*rows, *cols)),
            WorkloadSpec::WorkingSetWalk {
                region,
                window,
                dwell,
            } => Box::new(WalkStream::new(*region, *window, *dwell, rng)),
            WorkloadSpec::Phased { phases } => {
                let subs: Vec<(Box<dyn AccessStream>, u64)> = phases
                    .iter()
                    .enumerate()
                    .map(|(i, (spec, len))| (spec.stream(seed ^ (i as u64) << 32), *len))
                    .collect();
                Box::new(PhasedStream::new(subs))
            }
            WorkloadSpec::Mixture { parts } => {
                let subs: Vec<(f64, Box<dyn AccessStream>, u64)> = parts
                    .iter()
                    .enumerate()
                    .map(|(i, (w, spec))| {
                        // Disjoint sub-spaces: offset by component index.
                        (
                            *w,
                            spec.stream(seed.wrapping_add(0x9E37 * i as u64 + 1)),
                            (i as u64) << 40,
                        )
                    })
                    .collect();
                Box::new(MixtureStream::new(subs, rng))
            }
        }
    }

    /// Materializes `len` accesses as a [`Trace`].
    pub fn generate(&self, len: usize, seed: u64) -> Trace {
        let mut stream = self.stream(seed);
        let mut blocks = Vec::with_capacity(len);
        for _ in 0..len {
            blocks.push(stream.next_block());
        }
        Trace::new(blocks)
    }

    /// Approximate number of distinct blocks the workload will touch
    /// (upper bound for composite workloads).
    pub fn footprint_hint(&self) -> u64 {
        match self {
            WorkloadSpec::SequentialLoop { working_set } => *working_set,
            WorkloadSpec::Strided { region, .. } => *region,
            WorkloadSpec::UniformRandom { region } => *region,
            WorkloadSpec::Zipfian { region, .. } => *region,
            WorkloadSpec::PointerChase { region } => *region,
            WorkloadSpec::Stencil { rows, cols } => rows * cols,
            WorkloadSpec::WorkingSetWalk { region, .. } => *region,
            WorkloadSpec::Phased { phases } => phases
                .iter()
                .map(|(s, _)| s.footprint_hint())
                .max()
                .unwrap_or(0),
            WorkloadSpec::Mixture { parts } => parts.iter().map(|(_, s)| s.footprint_hint()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::Zipfian {
            region: 100,
            alpha: 0.8,
        };
        let a = spec.generate(500, 7);
        let b = spec.generate(500, 7);
        let c = spec.generate(500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn sequential_loop_footprint_exact() {
        let spec = WorkloadSpec::SequentialLoop { working_set: 32 };
        let t = spec.generate(100, 0);
        assert_eq!(t.distinct(), 32);
        assert_eq!(t.blocks[0], 0);
        assert_eq!(t.blocks[32], 0);
        assert_eq!(t.blocks[33], 1);
    }

    #[test]
    fn phased_shares_address_space() {
        let spec = WorkloadSpec::Phased {
            phases: vec![
                (WorkloadSpec::SequentialLoop { working_set: 3 }, 6),
                (WorkloadSpec::SequentialLoop { working_set: 1 }, 4),
            ],
        };
        let t = spec.generate(20, 1);
        // Phase 1: 0 1 2 0 1 2; Phase 2: 0 0 0 0; cycle.
        assert_eq!(
            t.blocks,
            vec![0, 1, 2, 0, 1, 2, 0, 0, 0, 0, 0, 1, 2, 0, 1, 2, 0, 0, 0, 0]
        );
        assert_eq!(t.distinct(), 3);
    }

    #[test]
    fn mixture_uses_disjoint_subspaces() {
        let spec = WorkloadSpec::Mixture {
            parts: vec![
                (1.0, WorkloadSpec::SequentialLoop { working_set: 4 }),
                (1.0, WorkloadSpec::SequentialLoop { working_set: 4 }),
            ],
        };
        let t = spec.generate(2000, 3);
        // Two disjoint 4-block loops: 8 distinct total.
        assert_eq!(t.distinct(), 8);
        assert!(t.blocks.iter().any(|&b| b >= 1 << 40));
        assert!(t.blocks.iter().any(|&b| b < 4));
    }

    #[test]
    fn footprint_hints() {
        assert_eq!(
            WorkloadSpec::Stencil { rows: 8, cols: 16 }.footprint_hint(),
            128
        );
        let mix = WorkloadSpec::Mixture {
            parts: vec![
                (0.5, WorkloadSpec::UniformRandom { region: 10 }),
                (0.5, WorkloadSpec::SequentialLoop { working_set: 20 }),
            ],
        };
        assert_eq!(mix.footprint_hint(), 30);
    }

    #[test]
    fn streams_are_resumable() {
        let spec = WorkloadSpec::UniformRandom { region: 50 };
        let mut s = spec.stream(9);
        let mut first = Vec::new();
        s.fill(100, &mut first);
        let mut rest = Vec::new();
        s.fill(100, &mut rest);
        let full = spec.generate(200, 9);
        assert_eq!(&full.blocks[..100], &first[..]);
        assert_eq!(&full.blocks[100..], &rest[..]);
    }
}
