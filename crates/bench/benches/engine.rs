//! Benchmarks E10 and E20: the online repartitioning engine's
//! steady-state cost, and the cost of observing it.
//!
//! Two questions matter for an epoch-driven controller: what the
//! per-access overhead of profiling + partitioned simulation is, and
//! how long a boundary re-solve takes at realistic cache sizes (the DP
//! is O(P·C²), so units dominate). Both are measured here on a
//! four-tenant interleaved stream. E20 then re-runs the same loop with
//! a metrics registry attached: the metrics-on/metrics-off delta is
//! the instrumentation tax (per-access relaxed atomic increments plus
//! per-epoch span clocks), budgeted at < 5% of hot-path throughput.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig, MetricsRegistry};
use cps_trace::{interleave_proportional, Block, CoTrace, Trace, WorkloadSpec};

fn four_tenant_cotrace(len: usize) -> CoTrace {
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
        .map(|(i, s)| s.generate(len, 1 + i as u64))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    interleave_proportional(&refs, &[1.0; 4], len)
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_online");

    // Full epoch loop: profiling, simulation, and periodic re-solves.
    let len = 50_000;
    let stream: Vec<(usize, Block)> = four_tenant_cotrace(len).tenant_accesses().collect();
    group.throughput(Throughput::Elements(len as u64));
    group.bench_function("epoch_loop_P4_C128_E5000", |b| {
        b.iter_batched(
            || Engine::new(EngineConfig::new(CacheConfig::new(128, 1), 5_000), 4, 1),
            |mut engine| {
                engine.run(stream.iter().copied());
                black_box(engine.finish())
            },
            BatchSize::SmallInput,
        )
    });
    // The same loop over several shards: per-epoch fan-out over worker
    // threads, barrier merge, one global solve, broadcast actuation.
    // On a multi-core host the profiling phase scales with the shard
    // count; on one core the curve stays flat and only measures the
    // buffering and fan-out/merge overhead.
    for shards in [2usize, 4] {
        group.throughput(Throughput::Elements(len as u64));
        group.bench_with_input(
            BenchmarkId::new("sharded_epoch_loop_P4_C128_E5000", shards),
            &shards,
            |b, &n| {
                b.iter_batched(
                    || Engine::new(EngineConfig::new(CacheConfig::new(128, 1), 5_000), 4, n),
                    |mut engine| {
                        engine.run(stream.iter().copied());
                        black_box(engine.finish())
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.throughput(Throughput::Elements(1));

    // Boundary re-solve cost as cache size grows (expected quadratic):
    // one epoch exactly, so each iteration pays one DP solve.
    for units in [64usize, 128, 256, 512] {
        let epoch = 10_000;
        let stream: Vec<(usize, Block)> = four_tenant_cotrace(epoch).tenant_accesses().collect();
        group.bench_with_input(
            BenchmarkId::new("single_epoch_C", units),
            &units,
            |b, &u| {
                b.iter_batched(
                    || Engine::new(EngineConfig::new(CacheConfig::new(u, 1), epoch), 4, 1),
                    |mut engine| {
                        engine.run(stream.iter().copied());
                        black_box(engine.finish())
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

/// Benchmark E20: instrumentation overhead. The identical epoch loop
/// with and without an attached metrics registry, inline (one shard)
/// and over 2 shards. Per-access instrumentation is only relaxed
/// atomic increments (spans are epoch-boundary-granular), so the
/// metrics-on column must stay within 5% of metrics-off.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_obs_overhead");
    let len = 50_000;
    let stream: Vec<(usize, Block)> = four_tenant_cotrace(len).tenant_accesses().collect();
    let cfg = EngineConfig::new(CacheConfig::new(128, 1), 5_000);

    group.throughput(Throughput::Elements(len as u64));
    group.bench_function("single/metrics_off", |b| {
        b.iter_batched(
            || Engine::new(cfg.clone(), 4, 1),
            |mut engine| {
                engine.run(stream.iter().copied());
                black_box(engine.finish())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("single/metrics_on", |b| {
        b.iter_batched(
            || Engine::with_metrics(cfg.clone(), 4, 1, Some(&MetricsRegistry::new())),
            |mut engine| {
                engine.run(stream.iter().copied());
                black_box(engine.finish())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("sharded2/metrics_off", |b| {
        b.iter_batched(
            || Engine::new(cfg.clone(), 4, 2),
            |mut engine| {
                engine.run(stream.iter().copied());
                black_box(engine.finish())
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("sharded2/metrics_on", |b| {
        b.iter_batched(
            || Engine::with_metrics(cfg.clone(), 4, 2, Some(&MetricsRegistry::new())),
            |mut engine| {
                engine.run(stream.iter().copied());
                black_box(engine.finish())
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_engine, bench_obs_overhead);
criterion_main!(benches);
