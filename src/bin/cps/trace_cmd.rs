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
    open_trace_source, parse_trace_opts, print_report, print_source_stats, Args, Mix, Records,
    MIX_FLAGS, TRACE_FLAGS,
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

    /// Appends a block of records, choosing the format once per block.
    fn write_block(&mut self, block: &[(usize, u64)]) -> std::io::Result<()> {
        match self {
            RecordWriter::Binary(w) => block
                .iter()
                .try_for_each(|&(t, b)| w.write_record(t as u64, b)),
            RecordWriter::Text(w) => block
                .iter()
                .try_for_each(|&(t, b)| w.write_record(t as u64, b)),
            RecordWriter::Csv(w) => block
                .iter()
                .try_for_each(|&(t, b)| w.write_record(t as u64, b)),
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
    let (source, from) = open_trace_source(path, &opts)?;
    let baked = source.block_map().block_bytes;

    let writer = RecordWriter::create(
        out_path,
        to,
        u32::try_from(baked).unwrap_or(0),
        &format!("converted from {} ({} bytes/block)", from.name(), baked),
    )?;
    let mut records = Records::file(path, source);
    let written = write_records(&mut records, writer, out_path)?;
    print_source_stats(&records.source_stats().expect("a file source"));
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
    let args = Args::parse(raw, &[&["out", "to"], MIX_FLAGS])?;
    let mix = Mix::parse(&args)?;
    let k = mix.specs.len();
    let out_path = args.require("out")?;
    let to = TraceFormat::parse(args.get("to").unwrap_or("binary"))?
        .ok_or("--to must name a concrete format (binary | text | csv)")?;

    // The exact stream replay-online draws from the same flags, so a
    // file-driven replay reproduces a generator-driven run record for
    // record, written in constant memory.
    let writer = RecordWriter::create(
        out_path,
        to,
        1,
        &format!(
            "cps trace gen: {k} workloads, len {}, seed {}",
            mix.len, mix.seed
        ),
    )?;
    let written = write_records(&mut mix.records(), writer, out_path)?;
    println!(
        "wrote {written} interleaved accesses ({k} tenants) to {out_path} ({} format)",
        to.name()
    );
    Ok(())
}

/// The writer loop of `convert` and `gen`: every record of `records`,
/// block by block, into `writer`. Returns the records written.
fn write_records(
    records: &mut Records,
    mut writer: RecordWriter,
    out_path: &str,
) -> Result<u64, String> {
    records.for_each_block(|block| {
        writer
            .write_block(block)
            .map_err(|e| format!("write {out_path}: {e}"))
    })?;
    writer
        .finish()
        .map_err(|e| format!("write {out_path}: {e}"))
}
