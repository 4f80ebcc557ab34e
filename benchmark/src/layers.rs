//! The traced run: per-layer rows for one workload.
//!
//! Three sources, all on the workload's own stream and engine shape:
//!
//! * a **staged replay** in this process — parse → encode → decode →
//!   per epoch {observe, access, end_window, cost build, solve,
//!   set_allocation} → journal parse — with a span around every call
//!   into a layer's public functions at chunk granularity (64 Ki
//!   records, 64 frames, one epoch), so a layer's cost is its spans'
//!   self time and the span cost stays far below the work it brackets;
//! * **child-process rows** — `cps replay-online` per engine mode and
//!   one `cps serve` probe — for what only the assembled program shows;
//! * **closure rows** derived from the two: how much of the program's
//!   CPU the staged layers explain, and what is left unnamed.
//!
//! The replay reproduces the engine's control decisions from the
//! layers alone (it imports nothing from `cps-engine`); the share of
//! epochs on which its allocation equals the journaled one is itself a
//! row, expected to read 1.

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self as wl, Ctx, Kind, Pass, ReplayMode, Workload, BATCH};
use cps_cachesim::PartitionedCache;
use cps_core::{
    access_shares, build_cost_curves, evaluate_group, sttw_partition, CacheConfig, CostCurve,
    DpSolver, Objective,
};
use cps_dstruct::DenseHistogram;
use cps_hotl::{MissRatioCurve, ProfilerMode, SoloProfile, WindowedProfiler};
use cps_obs::Journal;
use cps_serve::wire::{decode, encode, Message};
use cps_traceio::TraceFormat;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Records per parse span.
const PARSE_CHUNK: usize = 1 << 16;
/// Frames per encode/decode span (64 × 1024 records).
const FRAME_CHUNK: usize = 64;
/// Epochs whose cost curves are kept for the STTW / two-level rows.
const KEPT_CURVES: usize = 8;
/// Per-tenant accesses profiled for the group-evaluation row.
const GROUP_EVAL_ACCESSES: usize = 60_000;
/// Allocation-ready samples the serve probe aims for (p95 needs 200
/// to keep ten beyond it) and the closed-loop passes it will spend.
const READY_SAMPLES: usize = 200;
const MAX_SYNC_PASSES: usize = 8;
const ROUNDTRIPS: usize = 200;
/// `cps serve` and `cps replay-online` default to decay 0.5.
const DECAY: f64 = 0.5;

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The per-layer rows every workload's traced run reports, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: [LayerDef; 31] = [
    lower("traceio.parse.binary.ns_per_record", "ns"),
    higher("traceio.parse.binary.mb_per_s", "MB/s"),
    lower("trace.gen.ns_per_record", "ns"),
    lower("serve.wire.encode.ns_per_record", "ns"),
    lower("serve.wire.decode.ns_per_record", "ns"),
    lower("serve.wire.bytes_per_record", "bytes"),
    lower("serve.daemon.cpu_ns_per_record", "ns"),
    lower("serve.client.cpu_ns_per_record", "ns"),
    lower("serve.control.roundtrip_us_p50", "us"),
    lower("serve.alloc_ready_ms_p50", "ms"),
    lower("serve.alloc_ready_ms_p95", "ms"),
    lower("hotl.profile.observe.ns_per_record", "ns"),
    lower("hotl.profile.end_window.us_per_epoch", "us"),
    lower("dstruct.histogram.merge.us_per_call", "us"),
    lower("core.cost.build.us_per_epoch", "us"),
    lower("core.dp.solve.us_per_epoch", "us"),
    higher("core.dp.convex_curve_share", "ratio"),
    higher("core.dp.unchanged_curve_share", "ratio"),
    lower("core.sttw.solve.us", "us"),
    lower("core.group_eval.us_per_group", "us"),
    lower("cachesim.access.ns_per_record", "ns"),
    lower("cachesim.set_allocation.us_per_call", "us"),
    lower("cluster.two_level.solve.us_n2", "us"),
    lower("obs.journal.parse.us_per_epoch", "us"),
    lower("engine.inline.ns_per_record", "ns"),
    lower("engine.sharded1.ns_per_record", "ns"),
    lower("engine.sharded2.ns_per_record", "ns"),
    lower("closure.engine_residual_share", "ratio"),
    lower("closure.serve_residual_ns_per_record", "ns"),
    higher("closure.staged_alloc_match_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
];

/// Rows that need a run only one workload makes, and which workload;
/// everywhere else they are listed as skipped.
const ONE_WORKLOAD_ROWS: [(&str, &str); 6] = [
    ("serve.telemetry.cpu_tax_share", "serve-ingest"),
    ("serve.fanin.slowdown", "serve-fanin"),
    ("traceio.parse.csv.ns_per_record", "replay-sharded"),
    ("traceio.parse.text.ns_per_record", "replay-sharded"),
    ("engine.queued2.ns_per_record", "replay-sharded"),
    ("core.sweep.thread_scaling", "batch-groups"),
];

/// One measured row.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one traced run produced.
pub struct Probe {
    /// One row per [`PER_LAYER`] entry, same order.
    pub rows: Vec<Row>,
    /// Rows only this workload has (README lists which and why).
    pub extra: Vec<Row>,
    /// Rows that could not be measured, with the reason.
    pub skipped: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub input_digest: String,
    pub journal_digest: String,
    pub chrome_trace: std::path::PathBuf,
    pub spans: usize,
}

/// What the staged replay counted (its timings live in the recorder).
struct Staged {
    core_wall_s: f64,
    records: usize,
    file_bytes: u64,
    wire_bytes: u64,
    epochs: usize,
    curves: u64,
    convex: u64,
    unchanged: u64,
    alloc_matches: usize,
    kept_costs: Vec<Vec<CostCurve>>,
    last_window_gaps: Vec<DenseHistogram>,
    tenant_blocks: Vec<Vec<u64>>,
}

/// Non-increasing second differences would make the curve concave
/// somewhere; the (min,+) fold against a convex curve is the one a
/// totally-monotone fast fold can replace.
fn is_convex(curve: &CostCurve) -> bool {
    curve
        .raw()
        .windows(3)
        .all(|w| w[2] - w[1] >= w[1] - w[0] - 1e-12)
}

fn same_bits(a: &CostCurve, b: &CostCurve) -> bool {
    a.raw().len() == b.raw().len()
        && a.raw()
            .iter()
            .zip(b.raw())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Units changing hands between two allocations of the same capacity,
/// as the engine's hysteresis stage counts them.
fn units_moved(old: &[usize], new: &[usize]) -> usize {
    let grown: usize = old
        .iter()
        .zip(new)
        .map(|(&o, &n)| n.saturating_sub(o))
        .sum();
    let shrunk: usize = old
        .iter()
        .zip(new)
        .map(|(&o, &n)| o.saturating_sub(n))
        .sum();
    grown.max(shrunk)
}

/// The frames `cps bench-net` would put on the wire for this stream:
/// plain batches on one connection, position-stamped batches split
/// round-robin over several.
fn frames_for(records: &[(u64, u64)], connections: usize) -> Vec<Message> {
    if connections == 1 {
        return records
            .chunks(BATCH)
            .map(|c| Message::Batch {
                records: c.to_vec(),
            })
            .collect();
    }
    (0..connections)
        .flat_map(|j| {
            let mine: Vec<(u64, u64, u64)> = records
                .iter()
                .enumerate()
                .skip(j)
                .step_by(connections)
                .map(|(pos, &(t, b))| (pos as u64, t, b))
                .collect();
            mine.chunks(BATCH)
                .map(|c| Message::BatchSeq {
                    records: c.to_vec(),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn staged_replay(
    rec: &mut Recorder,
    trace: &Path,
    w: &Workload,
    connections: usize,
    journal: &Journal,
) -> Result<Staged, String> {
    let e = &w.engine;
    let started = Instant::now();
    let root = rec.begin("staged");

    // traceio: the binary reader behind the streaming front door.
    let mut source = wl::open_source(trace, TraceFormat::Binary, e.tenants)?;
    let mut records: Vec<(u64, u64)> = Vec::with_capacity(w.stream.records);
    let mut more = true;
    while more {
        let span = rec.begin("traceio.parse.binary");
        for _ in 0..PARSE_CHUNK {
            match source.next_record() {
                Ok(Some((t, b))) => records.push((t as u64, b)),
                Ok(None) => {
                    more = false;
                    break;
                }
                Err(err) => return Err(format!("{}: {err}", trace.display())),
            }
        }
        rec.end(span);
    }
    let file_bytes = source.stats().bytes_read;

    // serve (wire): the codec alone, no socket.
    let messages = frames_for(&records, connections);
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(messages.len());
    for chunk in messages.chunks(FRAME_CHUNK) {
        let span = rec.begin("serve.wire.encode");
        for msg in chunk {
            frames.push(encode(msg).map_err(|err| format!("encode: {err}"))?);
        }
        rec.end(span);
    }
    drop(messages);
    let wire_bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
    let mut decoded = 0usize;
    for chunk in frames.chunks(FRAME_CHUNK) {
        let span = rec.begin("serve.wire.decode");
        for frame in chunk {
            let (msg, used) = decode(frame).map_err(|err| format!("decode: {err}"))?;
            decoded += match black_box(&msg) {
                Message::Batch { records } => records.len(),
                Message::BatchSeq { records } => records.len(),
                _ => 0,
            };
            debug_assert_eq!(used, frame.len());
        }
        rec.end(span);
    }
    drop(frames);
    if decoded != records.len() {
        return Err(format!(
            "wire round trip lost records: {decoded} of {}",
            records.len()
        ));
    }

    // hotl + core + cachesim: the epoch loop, as the engine composes it.
    let cache_cfg = CacheConfig::new(e.units, e.bpu);
    let objective = Objective::MissRatioSum;
    let mode = ProfilerMode::Windowed { decay: DECAY };
    let mut profilers: Vec<WindowedProfiler> = (0..e.tenants)
        .map(|_| WindowedProfiler::new(cache_cfg.blocks(), mode))
        .collect();
    let mut allocation = cache_cfg.equal_split(e.tenants);
    let to_blocks =
        |units: &[usize]| -> Vec<usize> { units.iter().map(|&u| cache_cfg.to_blocks(u)).collect() };
    let mut cache = PartitionedCache::new(&to_blocks(&allocation));
    let mut solver = DpSolver::new();
    let epochs = records.len() / e.epoch;
    let keep_every = (epochs / KEPT_CURVES).max(1);
    let mut previous: Option<Vec<CostCurve>> = None;
    let mut staged = Staged {
        core_wall_s: 0.0,
        records: records.len(),
        file_bytes,
        wire_bytes,
        epochs,
        curves: 0,
        convex: 0,
        unchanged: 0,
        alloc_matches: 0,
        kept_costs: Vec::new(),
        last_window_gaps: Vec::new(),
        tenant_blocks: vec![Vec::new(); e.tenants],
    };
    for (i, epoch) in records.chunks_exact(e.epoch).enumerate() {
        if journal.epochs.get(i).map(|j| &j.allocation) == Some(&allocation) {
            staged.alloc_matches += 1;
        }
        let span = rec.begin("hotl.profile.observe");
        for &(t, b) in epoch {
            profilers[t as usize].observe(b);
        }
        rec.end(span);
        let span = rec.begin("cachesim.access");
        for &(t, b) in epoch {
            black_box(cache.access(t as usize, b));
        }
        rec.end(span);
        let counts = cache.take_counts();
        if i + 1 == epochs {
            staged.last_window_gaps = profilers.iter().map(|p| p.window_reuse().gaps).collect();
        }

        let span = rec.begin("hotl.profile.end_window");
        let mrcs: Vec<Option<MissRatioCurve>> =
            profilers.iter_mut().map(|p| p.end_window()).collect();
        rec.end(span);
        if mrcs.iter().any(Option::is_none) {
            // Some tenant has never been seen: the engine keeps its
            // allocation until every curve exists.
            continue;
        }
        let mrcs: Vec<MissRatioCurve> = mrcs.into_iter().flatten().collect();
        let span = rec.begin("core.cost.build");
        let accesses: Vec<f64> = counts.iter().map(|c| c.accesses as f64).collect();
        let shares = access_shares(&accesses);
        let refs: Vec<&MissRatioCurve> = mrcs.iter().collect();
        let costs = build_cost_curves(&refs, &cache_cfg, &shares, &objective, None);
        rec.end(span);

        staged.curves += costs.len() as u64;
        staged.convex += costs.iter().filter(|c| is_convex(c)).count() as u64;
        if let Some(prev) = &previous {
            staged.unchanged += costs
                .iter()
                .zip(prev)
                .filter(|(a, b)| same_bits(a, b))
                .count() as u64;
        }

        let span = rec.begin("core.dp.solve");
        let solved = solver.solve(&costs, e.units, &objective);
        rec.end(span);
        if let Some(result) = solved {
            if units_moved(&allocation, &result.allocation) > 0 {
                let span = rec.begin("cachesim.set_allocation");
                cache.set_allocation(&to_blocks(&result.allocation));
                rec.end(span);
                allocation = result.allocation;
            }
        }
        if i % keep_every == 0 && staged.kept_costs.len() < KEPT_CURVES {
            staged.kept_costs.push(costs.clone());
        }
        previous = Some(costs);
    }
    rec.end(root);
    staged.core_wall_s = started.elapsed().as_secs_f64();

    for &(t, b) in &records {
        let blocks = &mut staged.tenant_blocks[t as usize];
        if blocks.len() < GROUP_EVAL_ACCESSES {
            blocks.push(b);
        }
    }
    Ok(staged)
}

/// Rows measured on what the staged replay kept: they sit outside the
/// engine's per-record path, so outside the closure sum too.
fn side_rows(rec: &mut Recorder, staged: &Staged, w: &Workload, journal_text: &str) {
    let e = &w.engine;
    let objective = Objective::MissRatioSum;
    let mut solver = DpSolver::new();
    let groups: Vec<Vec<usize>> = vec![
        (0..e.tenants / 2).collect(),
        (e.tenants / 2..e.tenants).collect(),
    ];
    for costs in &staged.kept_costs {
        let span = rec.begin("core.sttw.solve");
        black_box(sttw_partition(costs, e.units));
        rec.end(span);
        let span = rec.begin("cluster.two_level.solve");
        black_box(cps_cluster::solve_two_level(
            &mut solver,
            costs,
            &groups,
            &[e.units, e.units],
            e.units,
            &objective,
        ));
        rec.end(span);
    }

    // One shard-merge's worth of histogram folding per call.
    let span = rec.begin("dstruct.histogram.merge");
    for _ in 0..MERGE_CALLS / staged.last_window_gaps.len().max(1) {
        for gaps in &staged.last_window_gaps {
            let mut acc = DenseHistogram::new();
            acc.merge(black_box(gaps));
            black_box(acc.total());
        }
    }
    rec.end(span);

    let cache_cfg = CacheConfig::new(e.units, e.bpu);
    let total: usize = staged.tenant_blocks.iter().map(Vec::len).sum();
    let profiles: Vec<SoloProfile> = staged
        .tenant_blocks
        .iter()
        .enumerate()
        .map(|(i, blocks)| {
            SoloProfile::from_trace(
                format!("t{i}"),
                blocks,
                blocks.len() as f64 / total.max(1) as f64,
                cache_cfg.blocks(),
            )
        })
        .collect();
    let members: Vec<&SoloProfile> = profiles.iter().collect();
    let span = rec.begin("core.group_eval");
    black_box(evaluate_group(&members, &cache_cfg));
    rec.end(span);

    let span = rec.begin("obs.journal.parse");
    black_box(Journal::parse(journal_text).is_ok());
    rec.end(span);
}

/// `DenseHistogram::merge` calls timed under one span.
const MERGE_CALLS: usize = 4_096;

/// Parses a converted copy of the trace in another format (the
/// `replay-sharded` extra rows: its parser runs in series with the
/// engine).
fn parse_converted(
    ctx: &Ctx,
    trace: &Path,
    tenants: usize,
    to: &str,
    format: TraceFormat,
) -> Result<f64, String> {
    let out = ctx.path(&format!("converted.{to}"));
    crate::proc::run_capture(
        ctx.cps()
            .args(["trace", "convert"])
            .arg(trace)
            .arg("--out")
            .arg(&out)
            .args(["--to", to]),
    )?;
    let mut source = wl::open_source(&out, format, tenants)?;
    let started = Instant::now();
    let mut n = 0u64;
    while let Some(r) = source.next_record().map_err(|e| e.to_string())? {
        black_box(r);
        n += 1;
    }
    let ns = started.elapsed().as_nanos() as f64 / n.max(1) as f64;
    let _ = std::fs::remove_file(&out);
    Ok(ns)
}

/// Books a pass's checks into the probe's totals. Passes through the
/// single engine (inline replay, any `cps serve` pass) must reproduce
/// the `reference` canonical journal; sharded replays journal another
/// engine name and check their own trajectory against inline instead.
fn book(probe: &mut Probe, pass: &Pass, reference: Option<&str>) {
    probe.attempted += pass.attempted;
    let mut violations = pass.violations.clone();
    if let Some(reference) = reference.filter(|r| *r != pass.journal_digest) {
        violations.push(format!(
            "canonical journal {} differs from the inline replay's {reference}",
            pass.journal_digest
        ));
    }
    probe.failed += pass.failed_items(&violations);
    probe.violations.extend(violations);
}

/// The traced run of one workload.
pub fn probe(w: &Workload, seed: u64) -> Result<Probe, String> {
    let (ctx, mut setup) = wl::set_up(w, seed, false)?;
    let trace = match setup.trace.take() {
        Some(t) => t,
        None => {
            // batch-groups runs no stream: its layer rows replay one
            // 4-program group online at the tournament's cache shape.
            let path = ctx.dir.join("trace.cpst");
            let t = Instant::now();
            wl::generate_trace(&ctx, &w.stream, seed, &path)?;
            setup.gen_s.push(t.elapsed().as_secs_f64());
            path
        }
    };
    let connections = match w.kind {
        Kind::Serve { connections } => connections,
        _ => 1,
    };
    let n = w.stream.records as f64;
    let per_record = |secs: f64| secs * 1e9 / n;

    // engine (CLI): the assembled program, inline first — its journal
    // is the reference every other pass must reproduce.
    let inline = wl::replay_pass(&ctx, w, &trace, ReplayMode::Inline)?;
    let journal = Journal::parse(&inline.journal_text)?;
    let mut probe = Probe {
        rows: Vec::new(),
        extra: Vec::new(),
        skipped: Vec::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        input_digest: setup.input_digest.clone(),
        journal_digest: inline.journal_digest.clone(),
        chrome_trace: crate::results_dir().join(format!("trace_{}.json", w.name)),
        spans: 0,
    };
    let reference = inline.journal_digest.clone();
    book(&mut probe, &inline, None);
    // `--shards N` replays inline and then sharded in one process, so
    // the sharded pass's own CPU is the difference.
    let mut sharded_ns = Vec::new();
    for shards in [1, 2] {
        let pass = wl::replay_pass(&ctx, w, &trace, ReplayMode::Sharded(shards))?;
        book(&mut probe, &pass, None);
        sharded_ns.push(per_record(pass.sut_cpu_s - inline.sut_cpu_s));
    }

    // The staged replay: untraced, traced, untraced — the traced wall
    // against the mean of its two neighbours, so a drifting host
    // cancels to first order.
    let mut off = Recorder::new(false);
    let before = staged_replay(&mut off, &trace, w, connections, &journal)?;
    let mut rec = Recorder::new(true);
    let staged = staged_replay(&mut rec, &trace, w, connections, &journal)?;
    let after = staged_replay(&mut off, &trace, w, connections, &journal)?;
    let untraced_wall_s = (before.core_wall_s + after.core_wall_s) / 2.0;
    side_rows(&mut rec, &staged, w, &inline.journal_text);
    let st = rec.self_times();
    let self_ns = |name: &str| st.get(name).map_or(0.0, |s| s.nanos as f64);
    let span_count = |name: &str| st.get(name).map_or(0.0, |s| s.spans as f64);
    let per_epoch_us = |name: &str| self_ns(name) / 1e3 / staged.epochs.max(1) as f64;
    let per_span_us = |name: &str| self_ns(name) / 1e3 / span_count(name).max(1.0);

    // serve probe: one free-running pass, closed-loop passes until the
    // pooled samples support p95, and idle control round trips.
    let free = wl::serve_free_pass(&ctx, w, &trace, connections, false)?;
    book(&mut probe, &free, Some(&reference));
    let records = wl::load_records(&trace, w.engine.tenants)?;
    let mut ready_ms: Vec<f64> = Vec::new();
    for _ in 0..MAX_SYNC_PASSES {
        if ready_ms.len() >= READY_SAMPLES {
            break;
        }
        let sync = wl::serve_sync_pass(&ctx, w, &records, connections)?;
        book(&mut probe, &sync, Some(&reference));
        ready_ms.extend_from_slice(&sync.ready_ms);
    }
    if ready_ms.len() < READY_SAMPLES {
        probe.skipped.push((
            "serve.alloc_ready_ms_p95 (support)".to_string(),
            format!(
                "{} samples leave fewer than ten beyond p95; the row is their nearest-rank p95",
                ready_ms.len()
            ),
        ));
    }
    let roundtrips = wl::control_roundtrips_us(&ctx, w, ROUNDTRIPS)?;

    let staged_engine_ns: f64 = [
        "traceio.parse.binary",
        "hotl.profile.observe",
        "hotl.profile.end_window",
        "core.cost.build",
        "core.dp.solve",
        "cachesim.set_allocation",
        "cachesim.access",
    ]
    .iter()
    .map(|name| self_ns(name))
    .sum();
    let inline_ns = per_record(inline.sut_cpu_s);
    let parse_ns = self_ns("traceio.parse.binary") / n;
    let decode_ns = self_ns("serve.wire.decode") / n;
    let daemon_ns = per_record(free.sut_cpu_s);

    let values = [
        ("traceio.parse.binary.ns_per_record", parse_ns),
        (
            "traceio.parse.binary.mb_per_s",
            staged.file_bytes as f64 / 1e6 / (self_ns("traceio.parse.binary") / 1e9),
        ),
        (
            "trace.gen.ns_per_record",
            per_record(stats::median(&setup.gen_s)),
        ),
        (
            "serve.wire.encode.ns_per_record",
            self_ns("serve.wire.encode") / n,
        ),
        ("serve.wire.decode.ns_per_record", decode_ns),
        ("serve.wire.bytes_per_record", staged.wire_bytes as f64 / n),
        ("serve.daemon.cpu_ns_per_record", daemon_ns),
        (
            "serve.client.cpu_ns_per_record",
            per_record(free.client_cpu_s.unwrap_or(0.0)),
        ),
        ("serve.control.roundtrip_us_p50", stats::median(&roundtrips)),
        ("serve.alloc_ready_ms_p50", stats::median(&ready_ms)),
        ("serve.alloc_ready_ms_p95", stats::percentile(&ready_ms, 95)),
        (
            "hotl.profile.observe.ns_per_record",
            self_ns("hotl.profile.observe") / n,
        ),
        (
            "hotl.profile.end_window.us_per_epoch",
            per_epoch_us("hotl.profile.end_window"),
        ),
        (
            "dstruct.histogram.merge.us_per_call",
            self_ns("dstruct.histogram.merge") / 1e3 / MERGE_CALLS as f64,
        ),
        (
            "core.cost.build.us_per_epoch",
            per_epoch_us("core.cost.build"),
        ),
        ("core.dp.solve.us_per_epoch", per_epoch_us("core.dp.solve")),
        (
            "core.dp.convex_curve_share",
            staged.convex as f64 / staged.curves.max(1) as f64,
        ),
        (
            "core.dp.unchanged_curve_share",
            staged.unchanged as f64 / staged.curves.max(1) as f64,
        ),
        ("core.sttw.solve.us", per_span_us("core.sttw.solve")),
        (
            "core.group_eval.us_per_group",
            per_span_us("core.group_eval"),
        ),
        (
            "cachesim.access.ns_per_record",
            self_ns("cachesim.access") / n,
        ),
        (
            "cachesim.set_allocation.us_per_call",
            per_span_us("cachesim.set_allocation"),
        ),
        (
            "cluster.two_level.solve.us_n2",
            per_span_us("cluster.two_level.solve"),
        ),
        (
            "obs.journal.parse.us_per_epoch",
            per_epoch_us("obs.journal.parse"),
        ),
        ("engine.inline.ns_per_record", inline_ns),
        ("engine.sharded1.ns_per_record", sharded_ns[0]),
        ("engine.sharded2.ns_per_record", sharded_ns[1]),
        // Below one clock tick of CPU (the smoke test's sizes) nothing
        // can be attributed.
        (
            "closure.engine_residual_share",
            if inline.sut_cpu_s > 0.0 {
                1.0 - staged_engine_ns / (inline.sut_cpu_s * 1e9)
            } else {
                0.0
            },
        ),
        // What the event loop, window and pump hand-off cost: daemon
        // CPU minus the engine's own per-record work (inline minus its
        // parser) minus frame decode.
        (
            "closure.serve_residual_ns_per_record",
            daemon_ns - (inline_ns - parse_ns) - decode_ns,
        ),
        (
            "closure.staged_alloc_match_share",
            staged.alloc_matches as f64 / staged.epochs.max(1) as f64,
        ),
        (
            "trace.overhead_share",
            staged.core_wall_s / untraced_wall_s - 1.0,
        ),
    ];
    probe.rows = PER_LAYER
        .iter()
        .zip(values)
        .map(|(def, (name, value))| {
            assert_eq!(def.name, name, "row values follow PER_LAYER's order");
            Row {
                name: name.to_string(),
                unit: def.unit,
                value,
            }
        })
        .collect();
    if staged.records != w.stream.records {
        probe.violations.push(format!(
            "staged replay parsed {} records, the stream has {}",
            staged.records, w.stream.records
        ));
    }

    let mut extra = |name: &str, unit: &'static str, value: f64| {
        probe.extra.push(Row {
            name: name.to_string(),
            unit,
            value,
        })
    };
    match w.name {
        "serve-ingest" => {
            let watched = wl::serve_free_pass(&ctx, w, &trace, 1, true)?;
            extra(
                "serve.telemetry.cpu_tax_share",
                "ratio",
                watched.sut_cpu_s / free.sut_cpu_s - 1.0,
            );
        }
        "serve-fanin" => {
            let single = wl::serve_free_pass(&ctx, w, &trace, 1, false)?;
            extra("serve.fanin.slowdown", "ratio", free.wall_s / single.wall_s);
        }
        "replay-sharded" => {
            for (to, format) in [("csv", TraceFormat::Csv), ("text", TraceFormat::Text)] {
                let ns = parse_converted(&ctx, &trace, w.engine.tenants, to, format)?;
                extra(&format!("traceio.parse.{to}.ns_per_record"), "ns", ns);
            }
            match wl::replay_pass(&ctx, w, &trace, ReplayMode::Queued(2)) {
                Ok(pass) => extra(
                    "engine.queued2.ns_per_record",
                    "ns",
                    per_record(pass.sut_cpu_s - inline.sut_cpu_s),
                ),
                Err(e) => probe.skipped.push((
                    "engine.queued2.ns_per_record".to_string(),
                    format!("cps replay-online --ingest queued: {}", first_line(&e)),
                )),
            }
        }
        "batch-groups" => {
            let one = wl::tournament_pass(&ctx, w, seed, Some(1))?;
            let all = wl::tournament_pass(&ctx, w, seed, None)?;
            extra(
                "core.sweep.thread_scaling",
                "ratio",
                one.wall_s / all.wall_s,
            );
        }
        _ => {}
    }
    for (name, only_on) in ONE_WORKLOAD_ROWS {
        if w.name != only_on {
            probe
                .skipped
                .push((name.to_string(), format!("measured on {only_on} only")));
        }
    }

    probe.spans = st.values().map(|s| s.spans as usize).sum();
    std::fs::create_dir_all(crate::results_dir())
        .and_then(|()| std::fs::write(&probe.chrome_trace, rec.chrome_json(w.name)))
        .map_err(|e| format!("write {}: {e}", probe.chrome_trace.display()))?;
    Ok(probe)
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convexity_and_bit_equality_are_judged_on_the_raw_curve() {
        let convex = CostCurve::from_raw(vec![1.0, 0.5, 0.25, 0.125, 0.125]);
        let cliff = CostCurve::from_raw(vec![1.0, 1.0, 1.0, 0.0, 0.0]);
        assert!(is_convex(&convex));
        assert!(!is_convex(&cliff));
        assert!(same_bits(&convex, &convex.clone()));
        assert!(!same_bits(&convex, &cliff));
        assert!(!same_bits(
            &CostCurve::from_raw(vec![0.0]),
            &CostCurve::from_raw(vec![-0.0])
        ));
    }

    #[test]
    fn units_moved_is_half_the_l1_distance_at_equal_totals() {
        assert_eq!(units_moved(&[8, 8], &[8, 8]), 0);
        assert_eq!(units_moved(&[8, 8], &[10, 6]), 2);
        assert_eq!(units_moved(&[4, 8, 4], &[8, 4, 4]), 4);
    }

    #[test]
    fn fan_in_frames_stamp_every_position_exactly_once() {
        let records: Vec<(u64, u64)> = (0..2_500u64).map(|i| (i % 4, i * 7)).collect();
        assert_eq!(frames_for(&records, 1).len(), 3);
        let mut seen = vec![false; records.len()];
        for msg in frames_for(&records, 2) {
            let Message::BatchSeq { records: frame } = msg else {
                panic!("fan-in frames are sequenced");
            };
            for (pos, t, b) in frame {
                assert_eq!(records[pos as usize], (t, b));
                assert!(!std::mem::replace(&mut seen[pos as usize], true));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The traced run's plumbing at 1/100 size: every row is a number
    /// and the staged replay reproduces the journaled allocations.
    #[test]
    fn the_probe_fills_every_row_on_a_small_stream() {
        for w in wl::all() {
            let small = w.shrunk(100);
            let p = probe(&small, 42).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(p.violations.is_empty(), "{}: {:?}", w.name, p.violations);
            assert_eq!(p.failed, 0);
            assert_eq!(p.rows.len(), PER_LAYER.len());
            for row in &p.rows {
                assert!(
                    row.value.is_finite(),
                    "{}: {} = {}",
                    w.name,
                    row.name,
                    row.value
                );
            }
            let row = |name: &str| p.rows.iter().find(|r| r.name == name).unwrap().value;
            assert_eq!(row("closure.staged_alloc_match_share"), 1.0, "{}", w.name);
            assert!(row("serve.wire.bytes_per_record") > 1.0);
            assert!(p.chrome_trace.is_file());
            let _ = std::fs::remove_file(&p.chrome_trace);
        }
    }
}
