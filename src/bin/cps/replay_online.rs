//! `cps replay-online` — replay an interleaved multi-tenant stream
//! through the epoch-driven repartitioning engine, side by side with a
//! static-optimal partition and free-for-all sharing, and optionally a
//! second time over `--shards N` stream shards to measure profiling
//! speedup and check the shard-count-invariance guarantee.
//!
//! `--journal PATH` streams the run's epoch event journal (the stable
//! JSONL schema `cps inspect` consumes) as the epochs close; the file
//! is created before the replay starts. `--metrics-out PATH` attaches
//! a metrics registry to the run and writes a snapshot on exit —
//! Prometheus text exposition by default, JSONL if PATH ends in
//! `.jsonl` or is `-` (which streams the snapshot to stdout). Both
//! describe the *observed* run: the `--shards` replay when one is
//! given, otherwise the one-shard run.

use crate::common::{
    create_journal, mix_unless_trace_file, open_trace_source, parse_engine_flags, parse_tenants,
    parse_trace_opts, print_source_stats, tenant_profiles, Args, Mix, Records, TraceInputOpts,
    MIX_FLAGS, TRACE_FLAGS,
};
use cache_partition_sharing::engine::{engine_name, EpochHook};
use cache_partition_sharing::obs::{EpochEvent, RunDigest, RunSummary};
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::traceio::{SourceStats, TraceIoMetrics};
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every flag this subcommand reads besides [`MIX_FLAGS`].
const FLAGS: &[&str] = &[
    "units",
    "bpu",
    "epoch",
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
/// number of times, in constant memory.
enum Stream<'a> {
    /// A synthesized workload mix, drawn afresh on every pass.
    Mix(Mix),
    /// An external trace file, streamed afresh on every pass.
    File {
        path: &'a str,
        opts: TraceInputOpts,
        metrics: Option<TraceIoMetrics>,
    },
}

impl Stream<'_> {
    /// A fresh pass over the stream, and the format of a file.
    fn open(&self) -> Result<(Records, Option<TraceFormat>), String> {
        match self {
            Stream::Mix(mix) => Ok((mix.records(), None)),
            Stream::File {
                path,
                opts,
                metrics,
            } => {
                let (mut source, format) = open_trace_source(path, opts)?;
                if let Some(m) = metrics {
                    source = source.with_metrics(m.clone());
                }
                Ok((Records::file(path, source), Some(format)))
            }
        }
    }
}

/// One timed pass of the stream through an engine.
struct Pass {
    run: RunDigest,
    elapsed: Duration,
    /// What the reader saw, for file streams.
    source: Option<SourceStats>,
}

/// Replays an opened pass of the stream through a fresh engine built
/// from `config`, streaming its journal into `journal` and its epochs
/// to `hook` when given.
fn replay(
    mut records: Records,
    config: EngineConfig,
    registry: Option<&MetricsRegistry>,
    journal: Option<File>,
    hook: Option<EpochHook>,
) -> Result<Pass, String> {
    let mut engine = Engine::with_metrics(config, registry);
    if let Some(file) = journal {
        engine.set_journal(file);
    }
    if let Some(hook) = hook {
        engine.set_epoch_hook(hook);
    }
    let start = Instant::now();
    // Each block goes to the engine as it comes: no iterator adapter,
    // no second chunking.
    records.for_each_block(|block| engine.push_batch(block).map_err(|e| e.to_string()))?;
    Ok(Pass {
        run: engine.finish().map_err(|e| format!("--journal: {e}"))?,
        elapsed: start.elapsed(),
        source: records.source_stats(),
    })
}

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS, MIX_FLAGS, TRACE_FLAGS])?;
    let metrics_path = args.get("metrics-out");
    // Metrics instrument the observed run only — the sharded replay
    // when --shards is given, otherwise the one-shard run — so the
    // snapshot never mixes two runs' counters.
    let registry = MetricsRegistry::new();
    let observed_registry = metrics_path.map(|_| &registry);

    // One shared stream drives every contender.
    let stream = match mix_unless_trace_file(&args)? {
        Some(mix) => Stream::Mix(mix),
        None => Stream::File {
            path: args.require("trace-file")?,
            opts: parse_trace_opts(&args, parse_tenants(&args)?)?,
            metrics: metrics_path.map(|_| TraceIoMetrics::register(&registry)),
        },
    };
    let k = match &stream {
        Stream::Mix(mix) if mix.specs.len() < 2 => {
            return Err("replay-online needs at least two comma-separated workloads".into())
        }
        Stream::Mix(mix) => mix.specs.len(),
        Stream::File { opts, .. } => opts.tenants,
    };
    let engine_cfg = parse_engine_flags(&args, k, "units")?;
    let config = engine_cfg.cache;
    let (units, bpu, epoch) = (
        config.units,
        config.blocks_per_unit,
        engine_cfg.epoch_length,
    );
    let objective = &engine_cfg.objective;
    let objective_name = objective.name();
    // `--shards N` adds a second, N-shard pass; the first runs inline.
    let shards = args.get("shards").map(|_| engine_cfg.shards);
    let (records, format) = stream.open()?;
    // Created before any replay; it records the observed run.
    let journal_path = args.get("journal");
    let mut journal = journal_path.map(create_journal).transpose()?;

    let knobs = format!(
        "{units} x {bpu}-block units, epoch {epoch}, decay {}, hysteresis {}, \
         objective {objective_name}, policy {:?}",
        engine_cfg.decay, engine_cfg.min_repartition_units, engine_cfg.policy
    );
    let baselines = match &stream {
        Stream::Mix(mix) => {
            println!(
                "online repartitioning: {k} tenants, {} accesses, {knobs}",
                mix.len
            );
            Some(replay_static_and_shared(mix, k, &config, objective, epoch)?)
        }
        Stream::File { path, .. } => {
            let format = format.expect("file passes carry a format").name();
            println!("online repartitioning: {k} tenants from {path} ({format} format), {knobs}");
            println!(
                "(static-optimal and free-for-all baselines need a materialized stream; skipped)"
            );
            None
        }
    };

    // Online: the epoch-driven repartitioning engine, served inline,
    // its table printed a row per epoch as it is booked.
    let totals = baselines.as_ref().map(|b| {
        b.iter()
            .fold([0u64; 3], |t, e| [t[0] + e[0], t[1] + e[1], t[2] + e[2]])
    });
    let solved = Arc::new(AtomicU64::new(0));
    let single = replay(
        records,
        engine_cfg.clone().shards(1),
        observed_registry.filter(|_| shards.is_none()),
        journal.take_if(|_| shards.is_none()),
        Some(epoch_table(baselines, Arc::clone(&solved))),
    )?;
    if let Some(stats) = &single.source {
        print_source_stats(stats);
    }
    print_totals(&single.run.summary, totals, solved.load(Ordering::Relaxed));

    // --shards: replay the identical stream over N shards and hold it
    // to the one-shard trajectory.
    let sharded = match shards {
        Some(n) => {
            let (records, _) = stream.open()?;
            let pass = replay(
                records,
                engine_cfg.clone(),
                observed_registry,
                journal.take(),
                None,
            )?;
            compare_sharded(&single, &pass, n, matches!(stream, Stream::File { .. }))?;
            Some(pass)
        }
        None => None,
    };

    // The journal and metrics snapshot describe the observed run.
    let observed = sharded.as_ref().unwrap_or(&single);
    if let Some(path) = journal_path {
        println!(
            "journal: {} epochs ({} engine) -> {path}",
            observed.run.summary.epochs,
            engine_name(shards.unwrap_or(1))
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

fn solve_summary(summary: &RunSummary, solved: u64) -> String {
    format!(
        "{} repartitions over {} epochs; mean solve stage {}",
        summary.repartitions,
        summary.epochs,
        match solved {
            0 => "n/a".to_string(),
            n => format!("{:.1} us", (summary.timings.solve_nanos / n) as f64 / 1e3),
        }
    )
}

/// Replays the mix through two references with the online run's epoch
/// boundaries: a static-optimal partition (one offline DP solve over
/// whole-run profiles, fixed for the whole run) and free-for-all
/// sharing of one LRU cache. The mix is drawn twice, to profile each
/// tenant and to replay it. Returns per epoch: accesses, static-optimal
/// misses, free-for-all misses.
fn replay_static_and_shared(
    mix: &Mix,
    k: usize,
    config: &CacheConfig,
    objective: &Objective,
    epoch: usize,
) -> Result<Vec<[u64; 3]>, String> {
    let profiles = tenant_profiles(&mut mix.records(), k, config.blocks())?;
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

    let mut epochs: Vec<[u64; 3]> = Vec::new();
    for (i, (tenant, b)) in mix.stream().enumerate() {
        if i % epoch == 0 {
            epochs.push([0; 3]);
        }
        let last = epochs.len() - 1;
        epochs[last][0] += 1;
        epochs[last][1] += u64::from(!static_cache.access(tenant, b));
        epochs[last][2] += u64::from(!shared_cache.access(b));
    }
    Ok(epochs)
}

/// Column `col`'s miss ratio of per-epoch baseline counts.
fn ratio(e: &[u64; 3], col: usize) -> f64 {
    e[col] as f64 / e[0].max(1) as f64
}

/// Prints the online run's epoch table header and returns the hook
/// that prints a row per booked epoch — with the static-optimal and
/// free-for-all columns when `baselines` holds their per-epoch counts
/// — and counts the epochs that solved into `solved`.
fn epoch_table(baselines: Option<Vec<[u64; 3]>>, solved: Arc<AtomicU64>) -> EpochHook {
    let references = baselines.as_ref().map_or(String::new(), |_| {
        format!(" {:>9} {:>9}", "static", "shared")
    });
    println!(
        "{:<7} {:>9}{references}  {:>6} {:>10}  allocation (units)",
        "epoch", "online", "moved", "solve"
    );
    let mut baselines = baselines.map(Vec::into_iter);
    // Buffered, so printing stays out of the pass's timing; dropped
    // with the engine at `finish`, which flushes it.
    let mut out = std::io::BufWriter::new(std::io::stdout());
    Box::new(move |e, _| {
        let references = baselines.as_mut().map_or(String::new(), |b| {
            let (st, sh) = b
                .next()
                .map_or((f64::NAN, f64::NAN), |b| (ratio(&b, 1), ratio(&b, 2)));
            format!(" {st:>9.4} {sh:>9.4}")
        });
        if e.timings.solve_nanos > 0 {
            solved.fetch_add(1, Ordering::Relaxed);
        }
        let _ = writeln!(
            out,
            "{:<7} {:>9.4}{references}  {}",
            e.epoch,
            e.miss_ratio(),
            boundary_columns(e)
        );
    })
}

/// The epoch table's closing lines: the cumulative miss ratios (with
/// the baselines' `totals` when there are any) and the solve summary.
fn print_totals(summary: &RunSummary, totals: Option<[u64; 3]>, solved: u64) {
    let online = summary.miss_ratio();
    match totals {
        Some(total) => {
            println!(
                "\ncumulative miss ratio: online {online:.4} | static-optimal {:.4} | \
                 free-for-all {:.4}",
                ratio(&total, 1),
                ratio(&total, 2)
            );
            println!("{}", solve_summary(summary, solved));
        }
        None => println!(
            "\ncumulative miss ratio: online {online:.4}; {}",
            solve_summary(summary, solved)
        ),
    }
}

/// Holds the N-shard replay to the one-shard run — a different
/// canonical digest means some epoch's allocation, counts or verdict
/// diverged, an engine bug reported as an error — and prints the
/// throughput of both.
fn compare_sharded(
    single: &Pass,
    sharded: &Pass,
    shards: usize,
    from_file: bool,
) -> Result<(), String> {
    let (a, b) = (&single.run, &sharded.run);
    if a.digest != b.digest {
        return Err(format!(
            "sharded engine diverged: single engine {} epochs, digest {:016x}; \
             {shards} shards {} epochs, digest {:016x} (journal both runs and compare \
             `cps inspect --canonical`)",
            a.summary.epochs, a.digest, b.summary.epochs, b.digest
        ));
    }
    let rate = |d: Duration| a.summary.accesses as f64 / d.as_secs_f64().max(1e-12) / 1e6;
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
