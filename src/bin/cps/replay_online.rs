//! `cps replay-online` — replay an interleaved multi-tenant stream
//! through the epoch-driven repartitioning engine, side by side with a
//! static-optimal partition and free-for-all sharing, and optionally a
//! second time over `--shards N` stream shards to measure profiling
//! speedup and check the shard-count-invariance guarantee.
//!
//! `--journal PATH` writes the run's epoch event journal (the stable
//! JSONL schema `cps inspect` consumes); `--metrics-out PATH` attaches
//! a metrics registry to the run and writes a snapshot on exit —
//! Prometheus text exposition by default, JSONL if PATH ends in
//! `.jsonl` or is `-` (which streams the snapshot to stdout). Both
//! describe the *observed* run: the `--shards` replay when one is
//! given, otherwise the one-shard run.

use crate::common::{
    open_trace_source, parse_engine_flags, parse_rates, parse_trace_opts, parse_workload,
    print_source_stats, Args, TraceInputOpts, TRACE_FLAGS,
};
use cache_partition_sharing::obs::EpochEvent;
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::trace::CoTrace;
use cache_partition_sharing::traceio::{SourceStats, TraceIoMetrics};
use std::time::{Duration, Instant};

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &[
    "workloads",
    "units",
    "bpu",
    "len",
    "epoch",
    "rates",
    "seed",
    "decay",
    "hysteresis",
    "shards",
    "objective",
    "baseline",
    "journal",
    "metrics-out",
    "trace-file",
    "tenants",
];

/// Where the access stream comes from; either kind can be replayed any
/// number of times.
enum Stream<'a> {
    /// A materialized interleave of synthesized workloads.
    Generated(CoTrace),
    /// An external trace file, streamed afresh on every pass (constant
    /// memory however large the file).
    File {
        path: &'a str,
        opts: TraceInputOpts,
        metrics: Option<TraceIoMetrics>,
    },
}

/// One timed pass of the stream through an engine.
struct Pass {
    report: Journal,
    elapsed: Duration,
    /// What the reader saw and the format it read, for file streams.
    source: Option<(SourceStats, TraceFormat)>,
}

/// Replays `stream` through a fresh engine over `shards` shards.
fn replay(
    stream: &Stream<'_>,
    config: &EngineConfig,
    tenants: usize,
    shards: usize,
    registry: Option<&MetricsRegistry>,
) -> Result<Pass, String> {
    let mut engine = Engine::with_metrics(config.clone(), tenants, shards, registry);
    match stream {
        Stream::Generated(co) => {
            let start = Instant::now();
            engine.run(co.tenant_accesses());
            Ok(Pass {
                report: engine.finish(),
                elapsed: start.elapsed(),
                source: None,
            })
        }
        Stream::File {
            path,
            opts,
            metrics,
        } => {
            let (mut source, format) = open_trace_source(path, opts)?;
            if let Some(m) = metrics {
                source = source.with_metrics(m.clone());
            }
            let start = Instant::now();
            // The reader's decoded blocks go to the engine as they are:
            // no iterator adapter, no second chunking.
            loop {
                let block = source.next_block().map_err(|e| format!("{path}: {e}"))?;
                if block.is_empty() {
                    break;
                }
                engine
                    .push_batch(block)
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            Ok(Pass {
                report: engine.finish(),
                elapsed: start.elapsed(),
                source: Some((source.stats(), format)),
            })
        }
    }
}

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS, TRACE_FLAGS])?;
    let trace_file = args.get("trace-file");
    let specs: Vec<WorkloadSpec> = match trace_file {
        Some(_) => Vec::new(),
        None => args
            .require("workloads")?
            .split(',')
            .map(parse_workload)
            .collect::<Result<_, _>>()?,
    };
    let k: usize = match trace_file {
        None if specs.len() < 2 => {
            return Err("replay-online needs at least two comma-separated workloads".into())
        }
        None => specs.len(),
        Some(_) => args
            .require("tenants")
            .map_err(|_| {
                "external traces need --tenants K (the engine's tenant count)".to_string()
            })?
            .parse()
            .map_err(|_| "bad --tenants".to_string())?,
    };
    if k == 0 {
        return Err("--tenants must be at least 1".into());
    }
    let engine_cfg = parse_engine_flags(&args, k)?;
    let config = engine_cfg.cache;
    let (units, bpu, epoch) = (
        config.units,
        config.blocks_per_unit,
        engine_cfg.epoch_length,
    );
    let objective = &engine_cfg.objective;
    let objective_name = objective.name();
    let len: usize = args.get_parse("len", 200_000)?;
    if len == 0 {
        return Err("--len must be at least 1".into());
    }
    let seed: u64 = args.get_parse("seed", 0)?;
    let shards: Option<usize> = match args.get("shards") {
        None => None,
        Some(_) => {
            let n: usize = args.get_parse("shards", 0)?;
            if n == 0 {
                return Err("--shards must be at least 1 (omit the flag to \
                            skip the sharded replay)"
                    .into());
            }
            Some(n)
        }
    };
    let journal_path = args.get("journal");
    let metrics_path = args.get("metrics-out");
    if trace_file.is_some() && args.get("rates").is_some() {
        return Err(
            "--rates shapes generated streams; an external --trace-file \
                    already carries its own interleaving"
                .into(),
        );
    }
    let rates = parse_rates(&args, k)?;
    // Metrics instrument the observed run only — the sharded replay
    // when --shards is given, otherwise the one-shard run — so the
    // snapshot never mixes two runs' counters.
    let registry = MetricsRegistry::new();
    let observed_registry = metrics_path.map(|_| &registry);

    // One shared stream drives every contender.
    let stream = match trace_file {
        Some(path) => Stream::File {
            path,
            opts: parse_trace_opts(&args, k)?,
            metrics: metrics_path.map(|_| TraceIoMetrics::register(&registry)),
        },
        None => {
            let traces: Vec<Trace> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| s.generate(len, seed.wrapping_add(i as u64 + 1)))
                .collect();
            let refs: Vec<&Trace> = traces.iter().collect();
            Stream::Generated(interleave_proportional(&refs, &rates, len))
        }
    };

    // Online: the epoch-driven repartitioning engine, served inline.
    let single = replay(
        &stream,
        &engine_cfg,
        k,
        1,
        observed_registry.filter(|_| shards.is_none()),
    )?;
    let report = &single.report;
    let ProfilerMode::Windowed { decay } = engine_cfg.profiler;
    let knobs = format!(
        "{units} x {bpu}-block units, epoch {epoch}, decay {decay}, hysteresis {}, \
         objective {objective_name}, policy {:?}",
        engine_cfg.min_repartition_units, engine_cfg.policy
    );
    let accesses = match &stream {
        Stream::Generated(co) => {
            println!(
                "online repartitioning: {k} tenants, {} accesses, {knobs}",
                co.len()
            );
            print_against_static_and_shared(co, report, k, &config, objective, epoch)?;
            co.len() as u64
        }
        Stream::File { path, .. } => {
            let (stats, format) = single
                .source
                .as_ref()
                .expect("file passes carry reader stats");
            println!(
                "online repartitioning: {k} tenants from {path} ({} format), {} accesses, {knobs}",
                format.name(),
                stats.records
            );
            print_source_stats(stats);
            println!(
                "(static-optimal and free-for-all baselines need a materialized stream; skipped)"
            );
            println!(
                "{:<7} {:>9}  {:>6} {:>10}  allocation (units)",
                "epoch", "online", "moved", "solve"
            );
            for e in &report.epochs {
                println!(
                    "{:<7} {:>9.4}  {}",
                    e.epoch,
                    e.miss_ratio(),
                    boundary_columns(e)
                );
            }
            println!(
                "\ncumulative miss ratio: online {:.4}; {}",
                report.cumulative_miss_ratio(),
                solve_summary(report)
            );
            stats.records
        }
    };

    // --shards: replay the identical stream over N shards and hold it
    // to the one-shard trajectory.
    let sharded = match shards {
        Some(n) => {
            let pass = replay(&stream, &engine_cfg, k, n, observed_registry)?;
            compare_sharded(&single, &pass, n, accesses, trace_file.is_some())?;
            Some(pass)
        }
        None => None,
    };

    // The journal and metrics snapshot describe the observed run.
    let observed = sharded.as_ref().map_or(report, |pass| &pass.report);
    if let Some(path) = journal_path {
        std::fs::write(path, observed.render()).map_err(|e| format!("write {path}: {e}"))?;
        println!(
            "journal: {} epochs ({} engine) -> {path}",
            observed.epochs.len(),
            observed.header.engine
        );
    }
    if let Some(path) = metrics_path {
        let snapshot = registry.snapshot();
        crate::common::write_text_out(
            path,
            &crate::common::render_metrics_snapshot(path, &snapshot),
        )?;
        if path != "-" {
            println!("metrics: {} samples -> {path}", snapshot.samples.len());
        }
    }
    Ok(())
}

/// The boundary half of an epoch table row: units moved (starred when
/// applied), solve latency, and the allocation served.
fn boundary_columns(e: &EpochEvent) -> String {
    let solve = if e.timings.solve_nanos > 0 {
        format!("{:.1}us", e.timings.solve_nanos as f64 / 1e3)
    } else {
        "-".to_string()
    };
    let mark = if e.repartitioned { "*" } else { " " };
    let alloc: Vec<String> = e.allocation.iter().map(|u| u.to_string()).collect();
    format!(
        "{:>5}{} {:>10}  {}",
        e.units_moved,
        mark,
        solve,
        alloc.join("/")
    )
}

fn solve_summary(report: &Journal) -> String {
    let solved: Vec<u64> = report
        .epochs
        .iter()
        .map(|e| e.timings.solve_nanos)
        .filter(|&ns| ns > 0)
        .collect();
    format!(
        "{} repartitions over {} epochs; mean DP solve {}",
        report.summary.repartitions,
        report.epochs.len(),
        match solved.len() as u64 {
            0 => "n/a".to_string(),
            n => format!("{:.1} us", (solved.iter().sum::<u64>() / n) as f64 / 1e3),
        }
    )
}

/// Prints the online run's epoch table next to two references replayed
/// with the same epoch boundaries: a static-optimal partition (one
/// offline DP solve over full-trace profiles, fixed for the whole run)
/// and free-for-all sharing of one LRU cache.
fn print_against_static_and_shared(
    co: &CoTrace,
    report: &Journal,
    k: usize,
    config: &CacheConfig,
    objective: &Objective,
    epoch: usize,
) -> Result<(), String> {
    let total_acc: u64 = co.per_program.iter().sum();
    let profiles: Vec<SoloProfile> = (0..k)
        .map(|i| {
            let blocks: Vec<Block> = co
                .accesses
                .iter()
                .filter(|a| a.program as usize == i)
                .map(|a| a.block)
                .collect();
            SoloProfile::from_trace(
                format!("t{i}"),
                &blocks,
                co.per_program[i].max(1) as f64 / total_acc.max(1) as f64,
                config.blocks(),
            )
        })
        .collect();
    let mrcs: Vec<&MissRatioCurve> = profiles.iter().map(|p| &p.mrc).collect();
    let shares: Vec<f64> = profiles.iter().map(|p| p.access_rate).collect();
    let costs =
        cache_partition_sharing::core::build_cost_curves(&mrcs, config, &shares, objective, None);
    let static_alloc = optimal_partition(&costs, config.units, objective)
        .ok_or("static solve infeasible")?
        .allocation;
    let static_sizes: Vec<usize> = static_alloc.iter().map(|&u| config.to_blocks(u)).collect();
    let mut static_cache = PartitionedCache::new(&static_sizes);
    let mut shared_cache = LruCache::new(config.blocks());

    let mut static_mr = Vec::new();
    let mut shared_mr = Vec::new();
    let mut static_total = (0u64, 0u64); // (accesses, misses)
    let mut shared_total = (0u64, 0u64);
    for chunk in co.accesses.chunks(epoch) {
        let (mut sa, mut sm, mut ha, mut hm) = (0u64, 0u64, 0u64, 0u64);
        for a in chunk {
            sa += 1;
            sm += u64::from(!static_cache.access(a.program as usize, a.block));
            ha += 1;
            hm += u64::from(!shared_cache.access(a.block));
        }
        static_mr.push(sm as f64 / sa as f64);
        shared_mr.push(hm as f64 / ha as f64);
        static_total = (static_total.0 + sa, static_total.1 + sm);
        shared_total = (shared_total.0 + ha, shared_total.1 + hm);
    }

    println!(
        "{:<7} {:>9} {:>9} {:>9}  {:>6} {:>10}  allocation (units)",
        "epoch", "online", "static", "shared", "moved", "solve"
    );
    for (i, e) in report.epochs.iter().enumerate() {
        println!(
            "{:<7} {:>9.4} {:>9.4} {:>9.4}  {}",
            e.epoch,
            e.miss_ratio(),
            static_mr.get(i).copied().unwrap_or(f64::NAN),
            shared_mr.get(i).copied().unwrap_or(f64::NAN),
            boundary_columns(e)
        );
    }
    println!(
        "\ncumulative miss ratio: online {:.4} | static-optimal {:.4} | free-for-all {:.4}",
        report.cumulative_miss_ratio(),
        static_total.1 as f64 / static_total.0.max(1) as f64,
        shared_total.1 as f64 / shared_total.0.max(1) as f64
    );
    println!("{}", solve_summary(report));
    Ok(())
}

/// Holds the N-shard replay to the one-shard allocation trajectory — a
/// divergence is an engine bug and is reported as an error — and
/// prints the throughput of both.
fn compare_sharded(
    single: &Pass,
    sharded: &Pass,
    shards: usize,
    accesses: u64,
    from_file: bool,
) -> Result<(), String> {
    let (a, b) = (&single.report, &sharded.report);
    if a.epochs.len() != b.epochs.len() {
        return Err(format!(
            "sharded engine produced {} epochs, single engine {}",
            b.epochs.len(),
            a.epochs.len()
        ));
    }
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        if ea.allocation != eb.allocation {
            return Err(format!(
                "sharded engine diverged at epoch {}: single {:?}, {shards} shards {:?}",
                ea.epoch, ea.allocation, eb.allocation
            ));
        }
    }
    let rate = |d: Duration| accesses as f64 / d.as_secs_f64().max(1e-12) / 1e6;
    println!(
        "\nsharded replay: same {}, allocations identical across shard counts",
        if from_file { "file" } else { "stream" }
    );
    println!(
        "{:<16} {:>12} {:>14} {:>9}",
        "engine", "elapsed", "Maccesses/s", "speedup"
    );
    for (label, pass) in [
        ("single".to_string(), single),
        (format!("{shards}-shard"), sharded),
    ] {
        println!(
            "{:<16} {:>10.1}ms {:>14.2} {:>8.2}x",
            label,
            pass.elapsed.as_secs_f64() * 1e3,
            rate(pass.elapsed),
            single.elapsed.as_secs_f64() / pass.elapsed.as_secs_f64().max(1e-12)
        );
    }
    Ok(())
}
