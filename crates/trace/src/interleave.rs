//! Co-run trace interleaving.
//!
//! Shared-cache simulation needs a single merged access stream from the
//! co-run programs. The paper's composition theory assumes accesses
//! interleave in proportion to each program's *access rate* (Section IV);
//! [`interleave_proportional`] implements exactly that with a
//! largest-deficit (Bresenham-style) scheduler, which is deterministic
//! and keeps every prefix of the merged trace rate-proportional to within
//! one access. Programs' address spaces are disjoint by construction
//! (each program's blocks are namespaced by its index).

use crate::model::{Block, Trace};
use crate::workload::AccessStream;

/// One access of a merged co-run trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoAccess {
    /// Index of the program that issued the access.
    pub program: u8,
    /// The (namespaced) block address.
    pub block: Block,
}

/// A merged co-run trace.
#[derive(Clone, Debug, Default)]
pub struct CoTrace {
    /// Accesses in interleaved order.
    pub accesses: Vec<CoAccess>,
    /// Per-program access counts actually emitted.
    pub per_program: Vec<u64>,
}

impl CoTrace {
    /// Total number of merged accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// True if no accesses were merged.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Iterates the merged trace as `(tenant, block)` pairs — the shape
    /// online consumers (the repartitioning engine) ingest.
    pub fn tenant_accesses(&self) -> impl Iterator<Item = (usize, Block)> + '_ {
        self.accesses.iter().map(|a| (a.program as usize, a.block))
    }
}

/// Bits reserved for namespacing program addresses in a merged trace.
pub const PROGRAM_SHIFT: u32 = 48;

/// Namespaces a program-local block into the merged address space.
pub fn namespaced(program: usize, block: Block) -> Block {
    ((program as u64) << PROGRAM_SHIFT) | block
}

/// Merges per-program traces proportionally to `rates`.
///
/// At every step the program with the largest *deficit* — expected
/// accesses so far minus emitted accesses — issues next. A program whose
/// trace is exhausted simply stops (the others continue), matching how a
/// short co-runner finishes early on real hardware.
///
/// The merged trace ends when `total_len` accesses have been emitted or
/// every trace is exhausted, whichever is first.
///
/// # Panics
/// Panics if `traces` and `rates` have different lengths, if any rate is
/// not positive, or if more than 256 programs are given.
pub fn interleave_proportional(traces: &[&Trace], rates: &[f64], total_len: usize) -> CoTrace {
    assert_eq!(traces.len(), rates.len(), "one rate per trace");
    assert!(traces.len() <= 256, "at most 256 co-run programs");
    assert!(
        rates.iter().all(|&r| r > 0.0 && r.is_finite()),
        "rates must be positive and finite"
    );
    let k = traces.len();
    let rate_sum: f64 = rates.iter().sum();
    let mut emitted = vec![0usize; k];
    let mut accesses = Vec::with_capacity(total_len.min(1 << 24));
    for step in 0..total_len {
        // Largest deficit among programs with accesses left.
        let mut best: Option<(f64, usize)> = None;
        for i in 0..k {
            if emitted[i] >= traces[i].len() {
                continue;
            }
            let expected = (step + 1) as f64 * rates[i] / rate_sum;
            let deficit = expected - emitted[i] as f64;
            match best {
                Some((d, _)) if d >= deficit => {}
                _ => best = Some((deficit, i)),
            }
        }
        let Some((_, i)) = best else {
            break; // all traces exhausted
        };
        let block = traces[i].blocks[emitted[i]];
        accesses.push(CoAccess {
            program: i as u8,
            block: namespaced(i, block),
        });
        emitted[i] += 1;
    }
    CoTrace {
        per_program: emitted.iter().map(|&e| e as u64).collect(),
        accesses,
    }
}

/// A lazy, unbounded proportional interleaver over live access streams.
///
/// The batch [`interleave_proportional`] materializes a merged trace;
/// this adapter produces the same largest-deficit schedule one access at
/// a time over stateful [`AccessStream`]s, which never exhaust. It is the
/// feed for online consumers that should not hold the whole co-run trace
/// in memory — each `next()` picks the tenant with the largest deficit,
/// pulls one block from its stream, and namespaces it.
///
/// # Examples
///
/// ```
/// use cps_trace::{InterleavedStream, WorkloadSpec};
/// let streams = vec![
///     WorkloadSpec::SequentialLoop { working_set: 4 }.stream(1),
///     WorkloadSpec::SequentialLoop { working_set: 8 }.stream(2),
/// ];
/// let mut s = InterleavedStream::new(streams, vec![1.0, 3.0]);
/// let first: Vec<(usize, u64)> = s.by_ref().take(8).collect();
/// let from_tenant0 = first.iter().filter(|(t, _)| *t == 0).count();
/// assert_eq!(from_tenant0, 2); // 1:3 rate split holds in the prefix
/// ```
pub struct InterleavedStream {
    streams: Vec<Box<dyn AccessStream>>,
    rates: Vec<f64>,
    rate_sum: f64,
    emitted: Vec<u64>,
    step: u64,
}

impl InterleavedStream {
    /// Builds an interleaver over `streams` with relative `rates`.
    ///
    /// # Panics
    /// Panics if the lengths differ, any rate is not positive and
    /// finite, no streams are given, or more than 256 are.
    pub fn new(streams: Vec<Box<dyn AccessStream>>, rates: Vec<f64>) -> Self {
        assert_eq!(streams.len(), rates.len(), "one rate per stream");
        assert!(!streams.is_empty(), "at least one stream");
        assert!(streams.len() <= 256, "at most 256 co-run programs");
        assert!(
            rates.iter().all(|&r| r > 0.0 && r.is_finite()),
            "rates must be positive and finite"
        );
        let rate_sum = rates.iter().sum();
        let emitted = vec![0u64; streams.len()];
        InterleavedStream {
            streams,
            rates,
            rate_sum,
            emitted,
            step: 0,
        }
    }

    /// Number of tenant streams.
    pub fn tenants(&self) -> usize {
        self.streams.len()
    }
}

impl Iterator for InterleavedStream {
    type Item = (usize, Block);

    #[inline]
    fn next(&mut self) -> Option<(usize, Block)> {
        // Largest deficit: expected accesses so far minus emitted.
        // Streams are infinite, so some tenant always issues.
        let mut best = (f64::NEG_INFINITY, 0usize);
        for i in 0..self.streams.len() {
            let expected = (self.step + 1) as f64 * self.rates[i] / self.rate_sum;
            let deficit = expected - self.emitted[i] as f64;
            if deficit > best.0 {
                best = (deficit, i);
            }
        }
        let i = best.1;
        let block = self.streams[i].next_block();
        self.emitted[i] += 1;
        self.step += 1;
        Some((i, namespaced(i, block)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn t(blocks: Vec<Block>) -> Trace {
        Trace::new(blocks)
    }

    #[test]
    fn equal_rates_round_robin_like() {
        let a = t(vec![1, 2, 3]);
        let b = t(vec![10, 20, 30]);
        let co = interleave_proportional(&[&a, &b], &[1.0, 1.0], 6);
        assert_eq!(co.len(), 6);
        assert_eq!(co.per_program, vec![3, 3]);
        // Each prefix of length 2k has k from each.
        for k in 1..=3 {
            let cnt = co.accesses[..2 * k]
                .iter()
                .filter(|x| x.program == 0)
                .count();
            assert_eq!(cnt, k);
        }
    }

    #[test]
    fn rates_respected_in_prefixes() {
        let a = t((0..300).collect());
        let b = t((0..300).collect());
        let co = interleave_proportional(&[&a, &b], &[3.0, 1.0], 400);
        let a_count = co.accesses.iter().filter(|x| x.program == 0).count();
        assert_eq!(a_count, 300);
        // The 3:1 ratio holds in every prefix within one access.
        let mut seen0 = 0.0;
        for (i, acc) in co.accesses.iter().enumerate().take(399) {
            if acc.program == 0 {
                seen0 += 1.0;
            }
            let expected = (i + 1) as f64 * 0.75;
            assert!(
                (seen0 - expected).abs() <= 1.0 + 1e-9,
                "prefix {i}: {seen0} vs {expected}"
            );
        }
    }

    #[test]
    fn exhausted_trace_lets_others_continue() {
        let a = t(vec![1]);
        let b = t(vec![10, 20, 30, 40]);
        let co = interleave_proportional(&[&a, &b], &[10.0, 1.0], 10);
        assert_eq!(co.per_program, vec![1, 4]);
        assert_eq!(co.len(), 5);
    }

    #[test]
    fn namespacing_keeps_programs_disjoint() {
        let a = t(vec![5]);
        let b = t(vec![5]);
        let co = interleave_proportional(&[&a, &b], &[1.0, 1.0], 2);
        assert_ne!(co.accesses[0].block, co.accesses[1].block);
        assert_eq!(co.accesses[0].block & 0xFFFF, 5);
        assert_eq!(co.accesses[1].block & 0xFFFF, 5);
    }

    #[test]
    fn empty_input_gives_empty_cotrace() {
        let a = t(vec![]);
        let co = interleave_proportional(&[&a], &[1.0], 5);
        assert!(co.is_empty());
        assert_eq!(co.per_program, vec![0]);
    }

    #[test]
    #[should_panic(expected = "one rate per trace")]
    fn mismatched_rates_panic() {
        let a = t(vec![1]);
        let _ = interleave_proportional(&[&a], &[1.0, 2.0], 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let a = t(vec![1]);
        let _ = interleave_proportional(&[&a], &[0.0], 1);
    }

    #[test]
    fn streaming_interleaver_matches_batch_schedule() {
        // Same rates, same per-tenant sequences → the lazy interleaver
        // must reproduce the batch largest-deficit schedule exactly.
        let specs = [
            WorkloadSpec::SequentialLoop { working_set: 6 },
            WorkloadSpec::UniformRandom { region: 40 },
            WorkloadSpec::Zipfian {
                region: 30,
                alpha: 0.8,
            },
        ];
        let rates = [2.0, 1.0, 3.0];
        let total = 600;
        let traces: Vec<Trace> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.generate(total, i as u64 + 1))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let batch = interleave_proportional(&refs, &rates, total);
        let streams = specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.stream(i as u64 + 1))
            .collect();
        let mut lazy = InterleavedStream::new(streams, rates.to_vec());
        for (k, co) in batch.accesses.iter().enumerate() {
            let (tenant, block) = lazy.next().expect("infinite stream");
            assert_eq!(tenant, co.program as usize, "step {k}");
            assert_eq!(block, co.block, "step {k}");
        }
    }

    #[test]
    fn streaming_interleaver_namespaces_tenants() {
        let streams = vec![
            WorkloadSpec::SequentialLoop { working_set: 3 }.stream(0),
            WorkloadSpec::SequentialLoop { working_set: 3 }.stream(0),
        ];
        let s = InterleavedStream::new(streams, vec![1.0, 1.0]);
        for (tenant, block) in s.take(50) {
            assert_eq!((block >> PROGRAM_SHIFT) as usize, tenant);
        }
    }

    #[test]
    fn cotrace_tenant_accesses_adapter() {
        let a = t(vec![1, 2]);
        let b = t(vec![10]);
        let co = interleave_proportional(&[&a, &b], &[2.0, 1.0], 3);
        let pairs: Vec<(usize, Block)> = co.tenant_accesses().collect();
        assert_eq!(pairs.len(), 3);
        for (p, acc) in pairs.iter().zip(&co.accesses) {
            assert_eq!(p.0, acc.program as usize);
            assert_eq!(p.1, acc.block);
        }
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_streaming_interleaver_panics() {
        let _ = InterleavedStream::new(Vec::new(), Vec::new());
    }
}
