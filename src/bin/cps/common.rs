//! Shared plumbing for the `cps` subcommands: flag parsing, the two
//! record doors (trace files through [`open_trace_source`], workload
//! mixes through [`Mix`]), profile I/O, spec parsing, and the
//! allocation table printer.

use cache_partition_sharing::engine::ConfigError;
use cache_partition_sharing::hotl::persist;
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::trace::workload::MAX_TABLE_REGION;
use cache_partition_sharing::traceio::{SourceStats, BLOCK_RECORDS};
use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Write};
use std::iter::Take;

/// Tiny flag parser: positionals plus `--key value` options.
pub struct Args {
    pub positional: Vec<String>,
    options: Vec<(String, String)>,
}

/// The shared `--trace-*` reader flags [`parse_trace_opts`] reads.
pub const TRACE_FLAGS: &[&str] = &[
    "trace-format",
    "tenancy",
    "block-bytes",
    "set-hash",
    "lenient",
];

impl Args {
    /// Parses `raw` against the subcommand's flag lists (`known`, one
    /// slice per flag group). A `--key` no list names is an error — a
    /// typo or a retired flag must not silently run with defaults.
    pub fn parse(raw: &[String], known: &[&[&str]]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if !known.iter().any(|group| group.contains(&key)) {
                    return Err(format!("unknown flag --{key}"));
                }
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                options.push((key.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }
}

/// Prints a command's report through one locked, buffered stdout. A
/// reader that hangs up early (`cps inspect J | head -2`) has seen what
/// it asked for: `BrokenPipe` ends the command quietly, any other write
/// error is the command's error.
pub fn print_report(
    report: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::new(std::io::stdout().lock());
    match report(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("write stdout: {e}")),
        _ => Ok(()),
    }
}

/// Writes `text` to `path`, or to stdout when `path` is `-`.
pub fn write_text_out(path: &str, text: &str) -> Result<(), String> {
    if path == "-" {
        std::io::stdout()
            .write_all(text.as_bytes())
            .map_err(|e| format!("write stdout: {e}"))
    } else {
        std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
    }
}

/// Creates `--journal PATH` before any work is done, so an unwritable
/// path fails at once, not after the run it was meant to record. `-`
/// is refused: stdout carries the verb's table.
pub fn create_journal(path: &str) -> Result<std::fs::File, String> {
    if path == "-" {
        return Err("--journal -: stdout carries the run's table; name a file".into());
    }
    std::fs::File::create(path).map_err(|e| format!("--journal {path}: {e}"))
}

/// Renders a metrics snapshot the way `--metrics-out PATH` promises:
/// JSONL when PATH ends in `.jsonl` or is `-` (stdout is for piping),
/// Prometheus text exposition otherwise.
pub fn render_metrics_snapshot(
    path: &str,
    snapshot: &cache_partition_sharing::obs::MetricsSnapshot,
) -> String {
    if path == "-" || path.ends_with(".jsonl") {
        snapshot.render_jsonl()
    } else {
        snapshot.render_prometheus()
    }
}

pub fn parse_workload(spec: &str) -> Result<WorkloadSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |s: &str| -> Result<u64, String> {
        s.parse()
            .map_err(|_| format!("bad number in workload: {s}"))
    };
    let parsed = match parts.as_slice() {
        ["loop", ws] => Ok(WorkloadSpec::SequentialLoop {
            working_set: num(ws)?,
        }),
        ["strided", r, s] => Ok(WorkloadSpec::Strided {
            region: num(r)?,
            stride: num(s)?,
        }),
        ["uniform", r] => Ok(WorkloadSpec::UniformRandom { region: num(r)? }),
        ["zipf", r, a] => Ok(WorkloadSpec::Zipfian {
            region: num(r)?,
            alpha: a.parse().map_err(|_| format!("bad alpha: {a}"))?,
        }),
        ["chase", r] => Ok(WorkloadSpec::PointerChase { region: num(r)? }),
        ["stencil", dims] => {
            let (r, c) = dims
                .split_once('x')
                .ok_or_else(|| format!("stencil wants ROWSxCOLS, got {dims}"))?;
            Ok(WorkloadSpec::Stencil {
                rows: num(r)?,
                cols: num(c)?,
            })
        }
        ["walk", r, w, d] => Ok(WorkloadSpec::WorkingSetWalk {
            region: num(r)?,
            window: num(w)?,
            dwell: num(d)?,
        }),
        _ => Err(format!(
            "unrecognized workload spec `{spec}` (see `cps help`)"
        )),
    }?;
    match parsed {
        WorkloadSpec::Zipfian { alpha, .. } if !alpha.is_finite() => Err(format!(
            "bad workload `{spec}`: the Zipf exponent must be finite"
        )),
        WorkloadSpec::Zipfian { region, .. } | WorkloadSpec::PointerChase { region }
            if region > MAX_TABLE_REGION =>
        {
            Err(format!(
                "bad workload `{spec}`: region {region} is above the \
                 {MAX_TABLE_REGION}-entry table bound"
            ))
        }
        _ => Ok(parsed),
    }
}

/// The shared `--trace-*` reader flags, parsed once and reusable for a
/// second pass over the same file (the sharded identity replay).
#[derive(Clone)]
pub struct TraceInputOpts {
    /// `--trace-format`: `None` means sniff the file.
    pub format: Option<TraceFormat>,
    /// `--tenancy` attribution policy.
    pub policy: TenantPolicy,
    /// `--block-bytes` / `--set-hash` address mapping.
    pub map: BlockMap,
    /// Tenant-id bound records must respect.
    pub tenants: usize,
    /// `--lenient true` skips malformed input instead of stopping.
    pub strictness: Strictness,
}

/// Parses the shared external-trace flags: `--trace-format`,
/// `--tenancy`, `--block-bytes`, `--set-hash`, `--lenient`, against a
/// caller-supplied tenant bound.
pub fn parse_trace_opts(args: &Args, tenants: usize) -> Result<TraceInputOpts, String> {
    let format = TraceFormat::parse(args.get("trace-format").unwrap_or("auto"))?;
    let policy = TenantPolicy::parse(args.get("tenancy").unwrap_or("explicit"))
        .map_err(|e| format!("bad --tenancy: {e}"))?;
    let block_bytes: u64 = args.get_parse("block-bytes", 64)?;
    if block_bytes == 0 {
        return Err("--block-bytes must be at least 1".into());
    }
    let set_hash: bool = args.get_parse("set-hash", false)?;
    let lenient: bool = args.get_parse("lenient", false)?;
    Ok(TraceInputOpts {
        format,
        policy,
        map: BlockMap {
            block_bytes,
            set_hash,
        },
        tenants,
        strictness: if lenient {
            Strictness::Lenient
        } else {
            Strictness::Strict
        },
    })
}

/// Opens `path` as a streaming [`TraceSource`], sniffing the format
/// from the first bytes when the options say `auto`. Returns the
/// source and the format actually used.
pub fn open_trace_source(
    path: &str,
    opts: &TraceInputOpts,
) -> Result<(TraceSource, TraceFormat), String> {
    use std::io::Read;
    let mut file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let (input, format): (Box<dyn Read + Send>, TraceFormat) = match opts.format {
        Some(f) => (Box::new(file), f),
        None => {
            let prefix = read_prefix(&mut file, path)?;
            let format = TraceFormat::sniff(&prefix);
            // Stitch the sniffed prefix back in front of the rest.
            (Box::new(std::io::Cursor::new(prefix).chain(file)), format)
        }
    };
    Ok((
        TraceSource::from_read(
            input,
            format,
            opts.policy.clone(),
            opts.map,
            opts.tenants,
            opts.strictness,
        ),
        format,
    ))
}

/// Bytes [`open_trace_source`] sniffs a format from.
const SNIFF_BYTES: usize = 512;

/// The first [`SNIFF_BYTES`] of `file`, fewer if it is shorter.
fn read_prefix(file: &mut File, path: &str) -> Result<Vec<u8>, String> {
    use std::io::Read;
    let mut prefix = Vec::with_capacity(SNIFF_BYTES);
    file.take(SNIFF_BYTES as u64)
        .read_to_end(&mut prefix)
        .map_err(|e| format!("read {path}: {e}"))?;
    Ok(prefix)
}

/// Prints the post-read source summary every trace-consuming command
/// shares: record/op counts, byte throughput, the bounded-memory
/// high-water mark, and the malformed-input report in lenient mode.
pub fn print_source_stats(stats: &SourceStats) {
    println!(
        "trace read: {} records from {} ops, {} bytes, reader high-water {} bytes",
        stats.records, stats.ops, stats.bytes_read, stats.max_resident_bytes
    );
    if stats.malformed_skipped > 0 {
        println!(
            "malformed input: {} lines/records skipped; first {}:",
            stats.malformed_skipped,
            stats.malformed_report.len()
        );
        for (_, _, reason) in &stats.malformed_report {
            println!("  {reason}");
        }
    }
}

/// Reads one program's TRACE for the offline verbs (`profile`,
/// `phase-plan`): the file goes through [`open_trace_source`] with the
/// sniffed format, the default reader options and a bound of one
/// tenant, and comes back as that tenant's block ids.
pub fn read_program(path: &str) -> Result<Vec<Block>, String> {
    let opts = parse_trace_opts(&Args::parse(&[], &[])?, 1)?;
    let (source, format) = open_trace_source(path, &opts)?;
    if format == TraceFormat::Csv {
        refuse_bare_values(path)?;
    }
    let blocks = split_tenants(&mut Records::file(path, source), 1)?.swap_remove(0);
    if blocks.is_empty() {
        return Err(format!("{path}: no accesses"));
    }
    Ok(blocks)
}

/// Refuses a CSV file whose first data line is one bare value: that is
/// the retired one-id-per-line format, and read as CSV its ids would
/// silently become byte addresses.
fn refuse_bare_values(path: &str) -> Result<(), String> {
    let mut file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let prefix = read_prefix(&mut file, path)?;
    let lines: Vec<&[u8]> = prefix.split(|&b| b == b'\n').collect();
    // A full prefix may cut its last line short: judge whole lines.
    let whole = lines.len() - usize::from(prefix.len() == SNIFF_BYTES);
    let first_data = lines[..whole]
        .iter()
        .position(|l| !l.trim_ascii().is_empty() && !l.trim_ascii().starts_with(b"#"));
    match first_data {
        Some(i) if !lines[i].contains(&b',') => Err(format!(
            "{path}:{}: one value per line is the retired `cps gen` format; \
             write the trace with `cps trace gen` (CSV rows here are addr,tenant)",
            i + 1
        )),
        _ => Ok(()),
    }
}

/// Where a verb's `(tenant, block)` records come from: a trace file
/// read through [`open_trace_source`], or a `--workloads` mix drawn
/// lazily from its [`Mix::stream`]. Either way the consumer sees
/// blocks of at most [`BLOCK_RECORDS`] records.
pub enum Records {
    File {
        path: String,
        source: Box<TraceSource>,
    },
    Mix {
        stream: Take<InterleavedStream>,
        block: Vec<(usize, Block)>,
    },
}

impl Records {
    /// The records of the trace file at `path`, read by `source`.
    pub fn file(path: &str, source: TraceSource) -> Records {
        Records::File {
            path: path.to_string(),
            source: Box::new(source),
        }
    }

    /// Hands every remaining block to `stage`, in order: a file's
    /// decoded block as the reader holds it, a mix's as drawn.
    pub fn for_each_block(
        &mut self,
        mut stage: impl FnMut(&[(usize, Block)]) -> Result<(), String>,
    ) -> Result<(), String> {
        loop {
            let block = match self {
                Records::File { path, source } => {
                    source.next_block().map_err(|e| format!("{path}: {e}"))?
                }
                Records::Mix { stream, block } => {
                    let drawn = block.iter_mut().zip(stream.by_ref());
                    let n = drawn.map(|(slot, record)| *slot = record).count();
                    &block[..n]
                }
            };
            if block.is_empty() {
                return Ok(());
            }
            stage(block)?;
        }
    }

    /// The reader's counters, for a file.
    pub fn source_stats(&self) -> Option<SourceStats> {
        match self {
            Records::File { source, .. } => Some(source.stats()),
            Records::Mix { .. } => None,
        }
    }
}

/// Drains `records` into one block vector per tenant.
pub fn split_tenants(records: &mut Records, tenants: usize) -> Result<Vec<Vec<Block>>, String> {
    let mut per_tenant: Vec<Vec<Block>> = vec![Vec::new(); tenants];
    records.for_each_block(|block| {
        for &(tenant, b) in block {
            per_tenant[tenant].push(b);
        }
        Ok(())
    })?;
    Ok(per_tenant)
}

/// Drains `records` and profiles each tenant as `t{i}` over its own
/// blocks, at its share of the records (a tenant with none is
/// profiled empty at share `1/total`).
pub fn tenant_profiles(
    records: &mut Records,
    tenants: usize,
    max_blocks: usize,
) -> Result<Vec<SoloProfile>, String> {
    let per_tenant = split_tenants(records, tenants)?;
    let total: usize = per_tenant.iter().map(Vec::len).sum();
    Ok(per_tenant
        .iter()
        .enumerate()
        .map(|(i, blocks)| {
            SoloProfile::from_trace(
                format!("t{i}"),
                blocks,
                blocks.len().max(1) as f64 / total.max(1) as f64,
                max_blocks,
            )
        })
        .collect())
}

pub fn load_profiles(paths: &[String]) -> Result<Vec<SoloProfile>, String> {
    if paths.is_empty() {
        return Err("need at least one PROFILE file".into());
    }
    paths
        .iter()
        .map(|p| {
            let file = File::open(p).map_err(|e| format!("open {p}: {e}"))?;
            persist::read_profile(&mut BufReader::new(file)).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// `--objective SPEC` → a first-class [`Objective`].
///
/// The spec grammar: `miss-ratio` (default; aliases `miss-ratio-sum`,
/// `throughput`), `maxmin` (aliases `max-miss-ratio`, `qos`),
/// `utility[:CURVATURE]`, `value-weighted[:W1,W2,..]`, `max-slowdown`.
/// Weight-count feasibility waits for the tenant count.
pub fn parse_objective(args: &Args) -> Result<Objective, String> {
    Objective::parse(args.get("objective").unwrap_or("miss-ratio"))
        .map_err(|e| format!("bad --objective: {e}"))
}

/// `x` as an access rate: a number, finite and above 0.
pub fn parse_rate(x: &str) -> Option<f64> {
    x.parse().ok().filter(|r: &f64| r.is_finite() && *r > 0.0)
}

/// The flags of a synthesized workload mix, shared by every verb that
/// draws one: `--workloads`, `--rates`, `--len` and `--seed`.
pub const MIX_FLAGS: &[&str] = &["workloads", "rates", "len", "seed"];

/// A parsed workload mix: workload `i` draws from
/// `specs[i].stream(seed + i + 1)`, the streams interleave in
/// proportion to the rates for `len` records, and every draw replays
/// the same records.
pub struct Mix {
    pub specs: Vec<WorkloadSpec>,
    rates: Vec<f64>,
    pub len: usize,
    pub seed: u64,
}

impl Mix {
    /// Parses [`MIX_FLAGS`]: `--workloads` is required (at most 256, a
    /// tenant id being one byte), `--rates` defaults to all 1.0,
    /// `--len` to 200,000 and `--seed` to 0.
    pub fn parse(args: &Args) -> Result<Mix, String> {
        let specs: Vec<WorkloadSpec> = args
            .require("workloads")?
            .split(',')
            .map(parse_workload)
            .collect::<Result<_, _>>()?;
        let k = specs.len();
        if k > 256 {
            return Err(format!(
                "bad --workloads: {k} workloads, a mix holds at most 256"
            ));
        }
        let rates: Vec<f64> = match args.get("rates") {
            None => vec![1.0; k],
            Some(spec) => spec
                .split(',')
                .map(|x| {
                    parse_rate(x).ok_or(format!("bad --rates: `{x}` is not a finite rate above 0"))
                })
                .collect::<Result<_, _>>()?,
        };
        if rates.len() != k {
            return Err(format!(
                "bad --rates: {} rates for {k} workloads",
                rates.len()
            ));
        }
        let len: usize = args.get_parse("len", 200_000)?;
        if len == 0 {
            return Err("--len must be at least 1".into());
        }
        let seed = args.get_parse("seed", 0)?;
        Ok(Mix {
            specs,
            rates,
            len,
            seed,
        })
    }

    /// The mix's records, drawn lazily.
    pub fn stream(&self) -> Take<InterleavedStream> {
        let streams = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.stream(self.seed.wrapping_add(i as u64 + 1)))
            .collect();
        InterleavedStream::new(streams, self.rates.clone()).take(self.len)
    }

    /// [`Mix::stream`] as a block source.
    pub fn records(&self) -> Records {
        Records::Mix {
            stream: self.stream(),
            block: vec![(0, 0); BLOCK_RECORDS],
        }
    }
}

/// The `--workloads` mix, or `None` for a `--trace-file` run, which
/// carries its own interleaving and so refuses `--rates`.
pub fn mix_unless_trace_file(args: &Args) -> Result<Option<Mix>, String> {
    match (args.get("trace-file"), args.get("rates")) {
        (None, _) if args.get("workloads").is_none() => {
            Err("need --workloads SPEC,... or --trace-file FILE".into())
        }
        (None, _) => Mix::parse(args).map(Some),
        (Some(_), None) => Ok(None),
        (Some(_), Some(_)) => Err("--rates shapes generated streams; an external \
                                   --trace-file already carries its own interleaving"
            .into()),
    }
}

/// `--tenants K`, required; its range is the engine's to check.
pub fn parse_tenants(args: &Args) -> Result<usize, String> {
    args.require("tenants")?
        .parse()
        .map_err(|_| "bad --tenants".to_string())
}

/// A refused shape as the flag error `bad --FLAG: …`, with `units_flag`
/// standing for the knob that sized the cache.
pub fn flag_error(e: ConfigError, units_flag: &str) -> String {
    match e.field {
        "units" => format!("bad --{units_flag}: {}", e.reason),
        flag => format!("bad --{flag}: {}", e.reason),
    }
}

/// The engine an online verb builds for `tenants` tenants from its
/// flags: `--units` (or `units_flag`, which falls back to `--units`),
/// `--bpu`, `--epoch`, `--shards`, `--decay`, `--hysteresis`,
/// `--objective` and `--baseline`, each with the one default.
/// [`EngineConfig::validate`] judges the shape; a refusal names its
/// flag.
pub fn parse_engine_flags(
    args: &Args,
    tenants: usize,
    units_flag: &str,
) -> Result<EngineConfig, String> {
    let units = match args.get(units_flag) {
        Some(units) => units,
        None => args.require("units")?,
    };
    let baseline = args.get("baseline").unwrap_or("none");
    let config = EngineConfig {
        tenants,
        cache: CacheConfig {
            units: units.parse().map_err(|_| format!("bad --{units_flag}"))?,
            blocks_per_unit: args.get_parse("bpu", 1)?,
        },
        epoch_length: args.get_parse("epoch", 10_000)?,
        shards: args.get_parse("shards", 1)?,
        decay: args.get_parse("decay", 0.5)?,
        min_repartition_units: args.get_parse("hysteresis", 1)?,
        policy: Policy::parse(baseline)
            .ok_or_else(|| format!("unknown --baseline {baseline} (none|equal|natural)"))?,
        objective: parse_objective(args)?,
    };
    config.validate().map_err(|e| flag_error(e, units_flag))?;
    Ok(config)
}

pub fn print_allocation_table(
    profiles: &[SoloProfile],
    config: &CacheConfig,
    result: &PartitionResult,
    shares: &[f64],
) {
    println!(
        "{:<20} {:>8} {:>10} {:>12}",
        "program", "units", "blocks", "miss ratio"
    );
    let mut group = 0.0;
    for (i, p) in profiles.iter().enumerate() {
        let u = result.allocation[i];
        let mr = p.mrc.at(config.to_blocks(u));
        group += shares[i] * mr;
        println!(
            "{:<20} {:>8} {:>10} {:>12.4}",
            p.name,
            u,
            config.to_blocks(u),
            mr
        );
    }
    println!("group miss ratio: {group:.4}");
}
