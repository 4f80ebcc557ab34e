//! The **sharded** epoch: the same pipeline fanned out over threads.
//!
//! An [`Engine`](crate::Engine) with `N > 1` shards buffers one epoch
//! of the interleaved stream and splits it into `N` contiguous chunks. Inside
//! a `std::thread::scope`, each shard profiles its chunk into private
//! per-tenant [`OnlineProfiler`]s and serves it against its own
//! full-size cache replica, through the same lane routine the inline
//! engine uses. At the epoch barrier the shards' window
//! segments are absorbed — **in stream order** — into the engine's
//! global per-tenant profilers, their epoch counts are summed, and a
//! *single* DP solve runs on the merged curves; the chosen allocation
//! is then broadcast back to every shard's actuator.
//!
//! # Determinism guarantee
//!
//! For any shard count, the merged solve is byte-identical to the
//! one-shard (inline) solve on the same stream, so the per-epoch
//! allocation trajectory of the journal is invariant in `N`:
//!
//! * profile merge is exact — [`OnlineProfiler::absorb`] stitches
//!   cross-chunk reuse pairs with integer histogram arithmetic, so the
//!   merged window equals the unsharded window bit for bit;
//! * the solve consumes only merged curves and per-tenant *access*
//!   counts, and every access lands in exactly one shard, so its inputs
//!   are preserved;
//! * the actuate decision is a pure function of `(current, target,
//!   threshold)`, so every replica reaches the same verdict.
//!
//! What is *not* invariant is shard-local accounting: each replica
//! serves only its slice of the stream against its own LRU state, so
//! realized hit/miss counts drift from the one-shard run (a block hot
//! across a chunk boundary is re-faulted by the next shard). The journal
//! sums the replicas' counts honestly.

use crate::actuate::HysteresisActuator;
use crate::lanes::serve_segment;
use crate::obs::EngineMetrics;
use crate::TenantId;
use cps_cachesim::AccessCounts;
use cps_hotl::online::OnlineProfiler;
use cps_hotl::windowed::WindowedProfiler;
use cps_obs::{Stage, StageTimings, Stopwatch};
use cps_trace::Block;

/// Serves one buffered epoch across the shard replicas and merges the
/// result: shard `i` profiles and serves the contiguous chunk
/// `[i·E/N, (i+1)·E/N)` of `epoch` (clamped to its realized length, so
/// a partial final epoch chunks like a full one) on its own thread,
/// then each shard's window segment is absorbed into `profilers` in
/// stream order — exactness requires it — and the shard-local counts
/// are summed. Returns the fan-out and merge spans and the epoch's
/// per-tenant counts.
pub(crate) fn fan_out(
    epoch: &[(TenantId, Block)],
    epoch_length: usize,
    actuators: &mut [HysteresisActuator],
    profilers: &mut [WindowedProfiler],
    metrics: Option<&EngineMetrics>,
) -> (StageTimings, Vec<AccessCounts>) {
    let tenants = profilers.len();
    let shards = actuators.len();
    let mut pre = StageTimings::default();
    let mut outputs: Vec<Option<(Vec<OnlineProfiler>, Vec<AccessCounts>)>> =
        actuators.iter().map(|_| None).collect();
    let profile_clock = Stopwatch::start();
    std::thread::scope(|s| {
        for (shard, ((actuator, out), range)) in actuators
            .iter_mut()
            .zip(outputs.iter_mut())
            .zip(chunk_bounds(epoch_length, shards, epoch.len()))
            .enumerate()
        {
            let chunk = &epoch[range];
            s.spawn(move || {
                let mut profs = vec![OnlineProfiler::new(); tenants];
                serve_segment(
                    chunk,
                    &mut vec![Vec::new(); tenants],
                    &mut profs,
                    OnlineProfiler::observe_all,
                    actuator,
                    metrics.map(|m| (m, shard)),
                );
                *out = Some((profs, actuator.take_counts()));
            });
        }
    });
    profile_clock.record(&mut pre, Stage::Profile);

    let merge_clock = Stopwatch::start();
    let mut per_tenant = vec![AccessCounts::default(); tenants];
    for slot in outputs {
        let (profs, counts) = slot.expect("every shard reports");
        for (profiler, chunk_prof) in profilers.iter_mut().zip(&profs) {
            profiler.absorb_window(chunk_prof);
        }
        for (acc, c) in per_tenant.iter_mut().zip(&counts) {
            acc.merge(c);
        }
    }
    merge_clock.record(&mut pre, Stage::Merge);
    (pre, per_tenant)
}

/// The contiguous-chunk shard rule: the index ranges of one epoch of
/// realized length `len` split across `shards` workers.
///
/// An epoch of `epoch_len` accesses gives shard `i` the contiguous
/// slice `[i·E/N, (i+1)·E/N)` of epoch positions (integer division;
/// `E = epoch_len`, `N = shards`), so `shards > epoch_len` leaves some
/// slices empty. A final epoch shorter than `epoch_len` keeps the
/// full-epoch boundaries, each clamped to `len` (`len ≤ epoch_len`),
/// so every epoch — full or partial — is chunked by the same rule and
/// the ranges tile `0..len`.
fn chunk_bounds(
    epoch_len: usize,
    shards: usize,
    len: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    debug_assert!(len <= epoch_len, "epoch cannot exceed its length");
    (0..shards).map(move |i| {
        let start = (i * epoch_len / shards).min(len);
        let end = ((i + 1) * epoch_len / shards).min(len);
        start..end
    })
}

#[cfg(test)]
mod tests {
    use super::chunk_bounds;
    use crate::{Engine, EngineConfig, Journal, MetricsRegistry};
    use cps_core::CacheConfig;
    use cps_trace::{interleave_proportional, Trace, WorkloadSpec};

    fn four_tenant_cotrace(total: usize) -> Vec<(usize, u64)> {
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
            .enumerate()
            .map(|(i, s)| s.generate(total, 1 + i as u64))
            .collect();
        let refs: Vec<&Trace> = traces.iter().collect();
        let co = interleave_proportional(&refs, &[1.0, 2.0, 1.0, 1.5], total);
        co.tenant_accesses().collect()
    }

    #[test]
    fn control_trajectory_is_invariant_in_shard_count() {
        let accesses = four_tenant_cotrace(23_500); // ends mid-epoch
        let cfg = EngineConfig::new(4, CacheConfig::new(128, 1), 5_000).hysteresis(2);
        let reports: Vec<Journal> = [1usize, 2, 3, 8]
            .iter()
            .map(|&n| {
                let mut e = Engine::new(cfg.clone().shards(n));
                e.run(accesses.iter().copied());
                e.finish()
            })
            .collect();
        let baseline = &reports[0];
        assert_eq!(baseline.epochs.len(), 5, "4 full + 1 partial");
        for r in &reports[1..] {
            assert_eq!(r.epochs.len(), baseline.epochs.len());
            for (ea, eb) in baseline.epochs.iter().zip(&r.epochs) {
                assert_eq!(ea.allocation, eb.allocation, "epoch {}", ea.epoch);
                assert_eq!(ea.predicted_cost, eb.predicted_cost, "epoch {}", ea.epoch);
                assert_eq!(ea.repartitioned, eb.repartitioned, "epoch {}", ea.epoch);
                assert_eq!(ea.units_moved, eb.units_moved, "epoch {}", ea.epoch);
                // Accesses (not hits) are preserved under sharding.
                assert_eq!(ea.accesses, eb.accesses, "epoch {}", ea.epoch);
            }
        }
    }

    #[test]
    fn more_shards_than_epoch_accesses_still_works() {
        let cfg = EngineConfig::new(2, CacheConfig::new(8, 1), 4).shards(8);
        let mut e = Engine::new(cfg);
        for i in 0..10u64 {
            e.record_access((i % 2) as usize, i % 3);
        }
        let report = e.finish();
        assert_eq!(report.epochs.len(), 3, "2 full + 1 partial");
        let total: u64 = report.epochs.iter().flat_map(|e| &e.accesses).sum();
        assert_eq!(total, 10);
    }

    /// The documented message, not an index panic, at every shard count.
    #[test]
    fn out_of_range_tenant_panics() {
        for shards in [1usize, 2] {
            let panic = std::panic::catch_unwind(|| {
                let cfg = EngineConfig::new(2, CacheConfig::new(8, 1), 100).shards(shards);
                Engine::new(cfg).record_access(2, 0);
            })
            .expect_err("tenant 2 of 2 must panic");
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.contains("tenant 2 out of range"),
                "{shards} shards: {message}"
            );
        }
    }

    /// Regression (PR 2 fixed the same bug in the unsharded loop): a
    /// stream whose length does not divide the epoch must have its tail
    /// profiled, solved, and reported — not dropped — at every shard
    /// count, including a tail shorter than the shard count.
    #[test]
    fn sharded_finish_flushes_the_partial_final_epoch() {
        let accesses = four_tenant_cotrace(12_750); // 2 full epochs + 2 750
        for shards in [1usize, 2, 8] {
            let cfg = EngineConfig::new(4, CacheConfig::new(64, 1), 5_000).shards(shards);
            let mut e = Engine::new(cfg);
            e.run(accesses.iter().copied());
            let report = e.finish();
            assert_eq!(
                report.epochs.len(),
                3,
                "{shards} shards: 2 full + 1 partial"
            );
            let partial = &report.epochs[2];
            assert_eq!(
                partial.accesses.iter().sum::<u64>(),
                2_750,
                "{shards} shards"
            );
            assert!(
                partial.predicted_cost.is_some(),
                "{shards} shards: partial epoch solved"
            );
            assert!(!partial.repartitioned, "partial epoch never actuated");
            assert_eq!(
                report.summary.accesses, 12_750,
                "{shards} shards: tail not dropped"
            );
        }
    }

    /// The dropped-tail audit's nastiest corner: a final chunk shorter
    /// than the shard count (most shards see an empty slice).
    #[test]
    fn final_chunk_shorter_than_shard_count_is_kept() {
        let cfg = EngineConfig::new(2, CacheConfig::new(16, 1), 1_000).shards(8);
        let mut e = Engine::new(cfg);
        for i in 0..2_003u64 {
            e.record_access((i % 2) as usize, i % 12);
        }
        let report = e.finish();
        assert_eq!(report.epochs.len(), 3, "2 full + 1 three-access tail");
        assert_eq!(report.epochs[2].accesses.iter().sum::<u64>(), 3);
        assert!(report.epochs[2].predicted_cost.is_some());
        assert_eq!(report.summary.accesses, 2_003);
    }

    /// `with_metrics` inline and sharded: the registered counters must
    /// agree with the journal's own totals.
    #[test]
    fn registered_metrics_agree_with_the_report() {
        let accesses = four_tenant_cotrace(20_000);
        let cfg = EngineConfig::new(4, CacheConfig::new(64, 1), 4_000);
        for shards in [1usize, 3] {
            let registry = MetricsRegistry::new();
            let mut engine = Engine::with_metrics(cfg.clone().shards(shards), Some(&registry));
            engine.run(accesses.iter().copied());
            let report = engine.finish();

            let snap = registry.snapshot();
            let counter = |name: &str| match snap.get(name) {
                Some(cps_obs::metrics::SampleValue::Counter(v)) => *v,
                other => panic!("{shards} shards: {name} -> {other:?}"),
            };
            let s = &report.summary;
            assert_eq!(counter("cps_engine_accesses_total"), s.accesses);
            assert_eq!(counter("cps_engine_hits_total"), s.accesses - s.misses);
            assert_eq!(
                counter("cps_engine_epochs_total"),
                report.epochs.len() as u64
            );
            assert_eq!(
                counter("cps_engine_repartitions_total"),
                s.repartitions as u64
            );
            let stage_totals = s.timings;
            for (stage, nanos) in stage_totals.iter() {
                assert_eq!(
                    counter(&format!("cps_engine_stage_{}_nanos_total", stage.name())),
                    nanos,
                    "{shards} shards: {stage}"
                );
            }
            assert!(
                stage_totals.solve_nanos > 0,
                "{shards} shards: solves timed"
            );
        }
    }

    #[test]
    fn chunk_bounds_tile_partial_epochs() {
        let full: Vec<_> = chunk_bounds(6, 2, 6).collect();
        assert_eq!(full, vec![0..3, 3..6]);
        // A partial epoch keeps the full-epoch boundaries, clamped.
        let ranges: Vec<_> = chunk_bounds(10, 4, 6).collect();
        assert_eq!(ranges, vec![0..2, 2..5, 5..6, 6..6]);
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 6);
        // More shards than accesses: later shards get empty slices.
        let ranges: Vec<_> = chunk_bounds(4, 8, 2).collect();
        let covered: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 2);
    }
}
