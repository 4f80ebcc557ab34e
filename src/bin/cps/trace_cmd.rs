//! `cps trace` — inspect, convert, and synthesize external trace files.
//!
//! Three verbs:
//!
//! * `stat FILE` — one bounded-memory streaming pass: record and op
//!   counts, the per-tenant histogram, the distinct-block footprint
//!   (exact up to a cap, sketched beyond it), the block-id range, and
//!   the malformed-input report;
//! * `convert IN --out OUT` — re-encode any readable format into
//!   `binary` (default), `text`, or `csv`, baking the tenancy policy
//!   and block mapping into the output so later replays skip both;
//! * `gen --workloads ... --out FILE` — write the exact interleaved
//!   stream `cps replay-online` would synthesize from the same
//!   workloads, rates, and seed, so file-driven and generator-driven
//!   runs are bit-for-bit comparable.

use crate::common::{
    open_trace_source, parse_rates, parse_trace_opts, parse_workload, print_report,
    print_source_stats, Args, TRACE_FLAGS,
};
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::traceio::{BinaryWriter, CsvWriter, StatCollector, TextWriter};
use std::fs::File;
use std::io::BufWriter;

/// Tenants shown individually in `stat` output before eliding.
const STAT_TENANT_ROWS: usize = 16;

pub fn run(raw: &[String]) -> Result<(), String> {
    let Some((verb, rest)) = raw.split_first() else {
        return Err("trace needs a verb: stat | convert | gen".into());
    };
    match verb.as_str() {
        "stat" => stat(rest),
        "convert" => convert(rest),
        "gen" => gen(rest),
        other => Err(format!(
            "unknown trace verb `{other}` (stat | convert | gen)"
        )),
    }
}

fn stat(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[&["tenants"], TRACE_FLAGS])?;
    let [path] = args.positional.as_slice() else {
        return Err("trace stat wants exactly one FILE".into());
    };
    // Stat bounds tenants only if asked to; by default it reports
    // whatever the file contains.
    let tenants: usize = args.get_parse("tenants", usize::MAX)?;
    let opts = parse_trace_opts(&args, tenants)?;
    let (mut source, format) = open_trace_source(path, &opts)?;

    let mut collector = StatCollector::new();
    loop {
        match source.next_record() {
            Ok(Some((tenant, block))) => collector.observe(tenant, block),
            Ok(None) => break,
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
    let stats = source.stats();
    let report = collector.report();

    print_report(|out| {
        writeln!(out, "trace stat: {path} ({} format)", format.name())?;
        writeln!(out, "records: {} (from {} ops)", report.records, stats.ops)?;
        writeln!(out, "tenants: {} distinct", report.tenants.len())?;
        let total = report.records.max(1) as f64;
        for &(t, n) in report.tenants.iter().take(STAT_TENANT_ROWS) {
            writeln!(
                out,
                "  tenant {t}: {n} records ({:.1}%)",
                n as f64 / total * 100.0
            )?;
        }
        if report.tenants.len() > STAT_TENANT_ROWS {
            writeln!(
                out,
                "  ... and {} more tenants",
                report.tenants.len() - STAT_TENANT_ROWS
            )?;
        }
        if report.tenant_overflow > 0 {
            writeln!(
                out,
                "  ({} records past the {}-tenant histogram cap)",
                report.tenant_overflow,
                cache_partition_sharing::traceio::stat::TENANT_HISTOGRAM_CAP
            )?;
        }
        if report.distinct_exact {
            writeln!(out, "distinct blocks: {} (exact)", report.distinct_blocks)?;
        } else {
            writeln!(
                out,
                "distinct blocks: ~{} (sketched)",
                report.distinct_blocks
            )?;
        }
        if let (Some(lo), Some(hi)) = (report.block_min, report.block_max) {
            writeln!(out, "block range: [{lo}, {hi}]")?;
        }
        writeln!(out, "malformed: {} skipped", stats.malformed_skipped)?;
        for (_, _, reason) in &stats.malformed_report {
            writeln!(out, "  {reason}")?;
        }
        writeln!(
            out,
            "bytes read: {}, reader high-water {} bytes",
            stats.bytes_read, stats.max_resident_bytes
        )
    })
}

/// The writer half of `convert` and `gen`: one of the three formats,
/// fed canonical `(tenant, block)` records.
enum RecordWriter {
    Binary(BinaryWriter<BufWriter<File>>),
    Text(TextWriter<BufWriter<File>>),
    Csv(CsvWriter<BufWriter<File>>),
}

impl RecordWriter {
    fn create(
        path: &str,
        to: TraceFormat,
        block_bytes: u32,
        provenance: &str,
    ) -> Result<Self, String> {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let out = BufWriter::new(file);
        Ok(match to {
            TraceFormat::Binary => RecordWriter::Binary(
                BinaryWriter::new(out, block_bytes).map_err(|e| format!("write {path}: {e}"))?,
            ),
            TraceFormat::Text => RecordWriter::Text(
                TextWriter::new(out, provenance).map_err(|e| format!("write {path}: {e}"))?,
            ),
            TraceFormat::Csv => {
                RecordWriter::Csv(CsvWriter::new(out).map_err(|e| format!("write {path}: {e}"))?)
            }
        })
    }

    fn write(&mut self, tenant: u64, block: u64) -> std::io::Result<()> {
        match self {
            RecordWriter::Binary(w) => w.write_record(tenant, block),
            RecordWriter::Text(w) => w.write_record(tenant, block),
            RecordWriter::Csv(w) => w.write_record(tenant, block),
        }
    }

    fn finish(self) -> std::io::Result<u64> {
        match self {
            RecordWriter::Binary(w) => w.finish(),
            RecordWriter::Text(w) => w.finish(),
            RecordWriter::Csv(w) => w.finish(),
        }
    }
}

fn convert(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[&["out", "to", "tenants"], TRACE_FLAGS])?;
    let [path] = args.positional.as_slice() else {
        return Err("trace convert wants exactly one input FILE".into());
    };
    let out_path = args.require("out")?;
    let to = TraceFormat::parse(args.get("to").unwrap_or("binary"))?
        .ok_or("--to must name a concrete format (binary | text | csv)")?;
    if args.get_parse("set-hash", false)? {
        return Err(
            "--set-hash is a replay-time option; converting would bake the hash in \
             and replays would hash twice"
                .into(),
        );
    }
    let tenants: usize = args.get_parse("tenants", usize::MAX)?;
    let opts = parse_trace_opts(&args, tenants)?;
    let (mut source, from) = open_trace_source(path, &opts)?;
    let baked = source.block_map().block_bytes;

    let mut writer = RecordWriter::create(
        out_path,
        to,
        u32::try_from(baked).unwrap_or(0),
        &format!("converted from {} ({} bytes/block)", from.name(), baked),
    )?;
    loop {
        match source.next_record() {
            Ok(Some((tenant, block))) => writer
                .write(tenant as u64, block)
                .map_err(|e| format!("write {out_path}: {e}"))?,
            Ok(None) => break,
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
    let written = writer
        .finish()
        .map_err(|e| format!("write {out_path}: {e}"))?;
    print_source_stats(&source.stats());
    println!(
        "converted {} ({}) -> {} ({}): {} records, block ids baked at {} bytes/block",
        path,
        from.name(),
        out_path,
        to.name(),
        written,
        baked
    );
    if to != TraceFormat::Binary {
        println!(
            "note: {} output carries block ids, not byte addresses; replay it \
             with --block-bytes 1",
            to.name()
        );
    }
    Ok(())
}

fn gen(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[&["workloads", "out", "to", "len", "rates", "seed"]])?;
    let specs: Vec<WorkloadSpec> = args
        .require("workloads")?
        .split(',')
        .map(parse_workload)
        .collect::<Result<_, _>>()?;
    let k = specs.len();
    let out_path = args.require("out")?;
    let to = TraceFormat::parse(args.get("to").unwrap_or("binary"))?
        .ok_or("--to must name a concrete format (binary | text | csv)")?;
    let len: usize = args.get_parse("len", 200_000)?;
    if len == 0 {
        return Err("--len must be at least 1".into());
    }
    let seed: u64 = args.get_parse("seed", 0)?;
    let rates = parse_rates(&args, k)?;

    // The exact stream replay-online builds: per-tenant seeds seed+i+1,
    // proportional interleave — so a file-driven replay reproduces a
    // generator-driven run record for record. Streamed: the lazy
    // interleaver follows the batch schedule step for step and draws
    // only the accesses the file holds, in constant memory.
    let streams = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.stream(seed.wrapping_add(i as u64 + 1)))
        .collect();
    let interleaved = InterleavedStream::new(streams, rates);

    let mut writer = RecordWriter::create(
        out_path,
        to,
        1,
        &format!("cps trace gen: {k} workloads, len {len}, seed {seed}"),
    )?;
    for (tenant, block) in interleaved.take(len) {
        writer
            .write(tenant as u64, block)
            .map_err(|e| format!("write {out_path}: {e}"))?;
    }
    let written = writer
        .finish()
        .map_err(|e| format!("write {out_path}: {e}"))?;
    println!(
        "wrote {written} interleaved accesses ({k} tenants) to {out_path} ({} format)",
        to.name()
    );
    Ok(())
}
