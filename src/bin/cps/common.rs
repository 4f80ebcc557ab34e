//! Shared plumbing for the `cps` subcommands: flag parsing, trace and
//! profile I/O, spec parsing, and the allocation table printer.

use cache_partition_sharing::hotl::persist;
use cache_partition_sharing::prelude::*;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};

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
    match parts.as_slice() {
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
    let format = match opts.format {
        Some(f) => f,
        None => {
            let mut prefix = [0u8; 512];
            let mut filled = 0;
            loop {
                let n = file
                    .read(&mut prefix[filled..])
                    .map_err(|e| format!("read {path}: {e}"))?;
                if n == 0 {
                    break;
                }
                filled += n;
                if filled == prefix.len() {
                    break;
                }
            }
            let format = TraceFormat::sniff(&prefix[..filled]);
            // Stitch the sniffed prefix back in front of the rest.
            let input: Box<dyn Read + Send> =
                Box::new(std::io::Cursor::new(prefix[..filled].to_vec()).chain(file));
            return Ok((
                TraceSource::from_read(
                    input,
                    format,
                    opts.policy.clone(),
                    opts.map,
                    opts.tenants,
                    opts.strictness,
                ),
                format,
            ));
        }
    };
    Ok((
        TraceSource::from_read(
            Box::new(file),
            format,
            opts.policy.clone(),
            opts.map,
            opts.tenants,
            opts.strictness,
        ),
        format,
    ))
}

/// Prints the post-read source summary every trace-consuming command
/// shares: record/op counts, byte throughput, the bounded-memory
/// high-water mark, and the malformed-input report in lenient mode.
pub fn print_source_stats(stats: &cache_partition_sharing::traceio::SourceStats) {
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

pub fn read_trace(path: &str) -> Result<Vec<Block>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let mut blocks = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let v = if let Some(hex) = t.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            t.parse()
        }
        .map_err(|_| format!("{path}:{}: bad block id `{t}`", lineno + 1))?;
        blocks.push(v);
    }
    if blocks.is_empty() {
        return Err(format!("{path}: no accesses"));
    }
    Ok(blocks)
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
/// Weight-count feasibility is deferred to
/// [`validate_objective_for`] once the tenant count is known.
pub fn parse_objective(args: &Args) -> Result<Objective, String> {
    Objective::parse(args.get("objective").unwrap_or("miss-ratio"))
        .map_err(|e| format!("bad --objective: {e}"))
}

/// Checks a parsed objective against the run's tenant count, phrasing
/// the failure as a flag error (`value-weighted` is the only
/// tenant-count-sensitive objective today).
pub fn validate_objective_for(objective: &Objective, tenants: usize) -> Result<(), String> {
    objective
        .validate_for(tenants)
        .map_err(|e| format!("bad --objective: {e}"))
}

/// `--rates R,R,...`: one interleaving rate per workload, all 1.0 when
/// the flag is absent.
pub fn parse_rates(args: &Args, workloads: usize) -> Result<Vec<f64>, String> {
    let Some(spec) = args.get("rates") else {
        return Ok(vec![1.0; workloads]);
    };
    let rates: Vec<f64> = spec
        .split(',')
        .map(|x| x.parse().map_err(|_| format!("bad rate `{x}`")))
        .collect::<Result<_, _>>()?;
    if rates.len() != workloads {
        return Err(format!("{} rates for {workloads} workloads", rates.len()));
    }
    Ok(rates)
}

/// The engine knobs `replay-online`, `serve` and `cluster` share:
/// `--units` (required), `--bpu`, `--epoch`, `--decay`,
/// `--hysteresis`, `--objective` (checked against `tenants`) and
/// `--baseline`, each with the one default and error message.
pub fn parse_engine_flags(args: &Args, tenants: usize) -> Result<EngineConfig, String> {
    let units: usize = args
        .require("units")?
        .parse()
        .map_err(|_| "bad --units".to_string())?;
    if units == 0 {
        return Err("--units must be at least 1".into());
    }
    let bpu: usize = args.get_parse("bpu", 1)?;
    if bpu == 0 {
        return Err("--bpu must be at least 1".into());
    }
    let epoch: usize = args.get_parse("epoch", 10_000)?;
    if epoch == 0 {
        return Err("--epoch must be at least 1 access".into());
    }
    let decay: f64 = args.get_parse("decay", 0.5)?;
    if !(0.0..1.0).contains(&decay) {
        return Err(format!("--decay must lie in [0, 1), got {decay}"));
    }
    let hysteresis: usize = args.get_parse("hysteresis", 1)?;
    let objective = parse_objective(args)?;
    validate_objective_for(&objective, tenants)?;
    let baseline = args.get("baseline").unwrap_or("none");
    let policy = Policy::parse(baseline)
        .ok_or_else(|| format!("unknown --baseline {baseline} (none|equal|natural)"))?;
    Ok(EngineConfig::new(CacheConfig::new(units, bpu), epoch)
        .policy(policy)
        .objective(objective)
        .decay(decay)
        .hysteresis(hysteresis))
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
