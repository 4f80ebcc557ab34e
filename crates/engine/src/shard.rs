//! The **sharded** epoch: the same pipeline, its tenants spread over
//! threads.
//!
//! In the paper's partitioned cache each tenant owns a private
//! partition and a private footprint, so tenants share no state between
//! two re-solves. An [`Engine`](crate::Engine) with `N > 1` shards
//! buffers one epoch of the interleaved stream and, at the boundary,
//! hands each of `W = min(N, tenants)` scoped workers a fixed set of
//! tenants: disjoint `&mut` borrows of those tenants' live tables —
//! each a profile window and a partition of the engine's **one** cache
//! over one block table. Each worker
//! reads the whole buffered epoch and serves its own tenants' records,
//! in stream order, through the same lane routine the inline engine
//! uses; the solve then runs once, on the live windows and the one
//! cache's counts, exactly as it does inline.
//!
//! # Determinism guarantee
//!
//! Every tenant's table sees exactly its own records,
//! in stream order, whichever worker serves it — the same sequence the
//! inline engine feeds them. So the journal — allocations, predictions,
//! hysteresis verdicts *and* realized hit/miss counts — is identical at
//! every shard count; only the stage timings differ. Tenants go to
//! workers by LPT ([`cps_core::place_greedy`]) on the epoch's own
//! per-tenant record counts, which balances load and decides nothing
//! else.

use crate::lanes::{serve_segment, TenantTable};
use crate::TenantId;
use cps_core::place_greedy;
use cps_obs::{Stage, StageTimings, Stopwatch};
use cps_trace::Block;

/// Serves one buffered epoch over at most `shards` workers, each owning
/// the tenants LPT gives it; worker 0 runs on the calling thread.
/// Returns the fan-out span, booked as profile time.
pub(crate) fn fan_out(
    epoch: &[(TenantId, Block)],
    shards: usize,
    tables: &mut [TenantTable],
) -> StageTimings {
    let tenants = tables.len();
    let mut records = vec![0u64; tenants];
    for &(tenant, _) in epoch {
        records[tenant] += 1;
    }
    let workers = shards.min(tenants);
    let owner = place_greedy(&records, workers);
    let mut crews: Vec<Vec<Option<&mut TenantTable>>> = (0..workers)
        .map(|_| (0..tenants).map(|_| None).collect())
        .collect();
    for (id, table) in tables.iter_mut().enumerate() {
        crews[owner[id]][id] = Some(table);
    }

    let mut pre = StageTimings::default();
    let clock = Stopwatch::start();
    let serve = |crew: &mut [Option<&mut TenantTable>]| {
        serve_segment(epoch, &mut vec![Vec::new(); tenants], crew);
    };
    std::thread::scope(|s| {
        let (first, rest) = crews.split_first_mut().expect("at least one worker");
        for crew in rest {
            s.spawn(move || serve(crew));
        }
        serve(first);
    });
    clock.record(&mut pre, Stage::Profile);
    pre
}

#[cfg(test)]
mod tests {
    use crate::tests::{finish, recorded};
    use crate::{Engine, EngineConfig, Journal, MetricsRegistry};
    use cps_core::CacheConfig;
    use cps_obs::{fnv1a, FNV1A_BASIS};
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
                let (mut e, sink) = recorded(cfg.clone().shards(n));
                e.run(accesses.iter().copied());
                finish(e, &sink)
            })
            .collect();
        assert_eq!(reports[0].epochs.len(), 5, "4 full + 1 partial");
        // Every epoch field but the wall clock, misses included, and
        // the summary: the canonical journal after its run header.
        let body = |j: &Journal| -> Vec<String> {
            j.canonical().lines().skip(1).map(String::from).collect()
        };
        let baseline = body(&reports[0]);
        for (r, shards) in reports[1..].iter().zip([2, 3, 8]) {
            assert_eq!(body(r), baseline, "{shards} shards");
        }
    }

    /// The digest an engine keeps while it streams is FNV-1a over the
    /// canonical journal after its header line, and no sink is needed
    /// to keep it: at 1, 2 and 3 shards, journaled or not.
    #[test]
    fn the_running_digest_is_the_canonical_body_digest() {
        let accesses = four_tenant_cotrace(23_500);
        let cfg = EngineConfig::new(4, CacheConfig::new(64, 2), 2_000).hysteresis(2);
        for shards in [1usize, 2, 3] {
            let (mut journaled, sink) = recorded(cfg.clone().shards(shards));
            let mut bare = Engine::new(cfg.clone().shards(shards));
            journaled.run(accesses.iter().copied());
            bare.run(accesses.iter().copied());
            let (end, bare) = (journaled.finish().unwrap(), bare.finish().unwrap());
            let canonical = sink.journal().unwrap().canonical();
            let (header, body) = canonical.split_once('\n').unwrap();
            assert!(header.contains("\"kind\":\"run\""), "{shards} shards");
            assert_eq!(end.digest, fnv1a(FNV1A_BASIS, body.as_bytes()), "{shards}");
            assert_eq!(bare.digest, end.digest, "{shards} shards");
            assert_eq!(end.summary.epochs, 12, "{shards} shards");
        }
    }

    /// A sink that stops taking bytes: the run goes on, and `finish`
    /// reports the first error instead of a digest.
    #[test]
    fn a_failing_sink_is_reported_by_finish() {
        struct Full(usize);
        impl std::io::Write for Full {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0 = self
                    .0
                    .checked_sub(1)
                    .ok_or(std::io::ErrorKind::StorageFull)?;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut engine = Engine::new(EngineConfig::new(2, CacheConfig::new(8, 1), 10));
        engine.set_journal(Full(3));
        engine.run((0..100u64).map(|i| ((i % 2) as usize, i % 7)));
        assert_eq!(engine.epochs_completed(), 10);
        let err = engine.finish().expect_err("the sink filled after 3 lines");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn more_shards_than_epoch_accesses_still_works() {
        let cfg = EngineConfig::new(2, CacheConfig::new(8, 1), 4).shards(8);
        let (mut e, sink) = recorded(cfg);
        for i in 0..10u64 {
            e.record_access((i % 2) as usize, i % 3);
        }
        let report = finish(e, &sink);
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
            let (mut e, sink) = recorded(cfg);
            e.run(accesses.iter().copied());
            let report = finish(e, &sink);
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
        let (mut e, sink) = recorded(cfg);
        for i in 0..2_003u64 {
            e.record_access((i % 2) as usize, i % 12);
        }
        let report = finish(e, &sink);
        assert_eq!(report.epochs.len(), 3, "2 full + 1 three-access tail");
        assert_eq!(report.epochs[2].accesses.iter().sum::<u64>(), 3);
        assert!(report.epochs[2].predicted_cost.is_some());
        assert_eq!(report.summary.accesses, 2_003);
    }

    /// `with_metrics` inline and sharded, on whole epochs and with a
    /// partial last one: the registered counters, booked at the
    /// boundaries, must agree with the journal's own totals.
    #[test]
    fn registered_metrics_agree_with_the_report() {
        let cfg = EngineConfig::new(4, CacheConfig::new(64, 1), 4_000);
        for (total, shards) in [(20_000, 1usize), (20_000, 3), (21_500, 1), (21_500, 3)] {
            let accesses = four_tenant_cotrace(total);
            let registry = MetricsRegistry::new();
            let mut engine = Engine::with_metrics(cfg.clone().shards(shards), Some(&registry));
            engine.run(accesses.iter().copied());
            let report = engine.finish().unwrap();

            let snap = registry.snapshot();
            let counter = |name: &str| match snap.get(name) {
                Some(cps_obs::metrics::SampleValue::Counter(v)) => *v,
                other => panic!("{shards} shards: {name} -> {other:?}"),
            };
            let s = &report.summary;
            assert_eq!(s.accesses, total as u64);
            assert_eq!(counter("cps_engine_accesses_total"), s.accesses);
            assert_eq!(counter("cps_engine_hits_total"), s.accesses - s.misses);
            assert_eq!(counter("cps_engine_epochs_total"), s.epochs as u64);
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
}
