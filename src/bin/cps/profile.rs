//! `cps profile` — profile a trace into an on-disk [`SoloProfile`],
//! either exhaustively or with bursty sampling plus tail extrapolation.
//! The trace is one program's, in any format `cps trace` reads.

use crate::common::{parse_rate, read_program, Args};
use cache_partition_sharing::hotl::persist;
use cache_partition_sharing::prelude::*;
use std::fs::File;
use std::io::{BufWriter, Write};

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["out", "rate", "max-blocks", "name", "burst", "ratio"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let [trace_path] = args.positional.as_slice() else {
        return Err("profile wants exactly one TRACE file".into());
    };
    let out = args.require("out")?;
    let rate = match args.get("rate") {
        None => 1.0,
        Some(x) => parse_rate(x).ok_or(format!("bad --rate {x}: not a finite rate above 0"))?,
    };
    let max_blocks: usize = args.get_parse("max-blocks", 1024)?;
    if max_blocks >= persist::MAX_MRC_SAMPLES {
        return Err(format!(
            "bad --max-blocks: a profile holds at most {} miss-ratio samples",
            persist::MAX_MRC_SAMPLES
        ));
    }
    let default_name = trace_path
        .rsplit('/')
        .next()
        .unwrap_or(trace_path)
        .trim_end_matches(".trace")
        .to_string();
    let name = args.get("name").unwrap_or(&default_name);
    let blocks = read_program(trace_path)?;
    let profile = match args.get("burst") {
        None => SoloProfile::from_trace(name, &blocks, rate, max_blocks),
        Some(burst) => {
            // Bursty sampled profiling with tail extrapolation, so the
            // MRC is usable up to max_blocks even for short bursts.
            let burst: usize = burst.parse().map_err(|_| "bad --burst".to_string())?;
            let ratio: usize = args.get_parse("ratio", 10)?;
            if burst == 0 || ratio == 0 || burst.checked_mul(ratio).is_none() {
                return Err(format!(
                    "bad --burst/--ratio {burst}/{ratio}: both must be at least 1, \
                     and their product must fit in a usize"
                ));
            }
            let cfg = cache_partition_sharing::hotl::BurstConfig::with_ratio(burst, ratio);
            let fp = cache_partition_sharing::hotl::sample_footprint(&blocks, cfg)
                .extrapolate_to(max_blocks as f64 + 1.0, blocks.len() + 1);
            let mrc = MissRatioCurve::from_footprint(&fp, max_blocks);
            eprintln!(
                "sampled profiling: burst {burst}, coverage {:.1}%",
                cfg.coverage() * 100.0
            );
            SoloProfile {
                name: name.to_string(),
                access_rate: rate,
                accesses: fp.accesses,
                footprint: fp,
                mrc,
            }
        }
    };
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut w = BufWriter::new(file);
    persist::write_profile(&mut w, &profile).map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;
    println!(
        "profiled `{name}`: {} accesses, {} distinct blocks, mr({max_blocks}) = {:.4} -> {out}",
        profile.accesses,
        profile.footprint.distinct,
        profile.mrc.at(max_blocks)
    );
    Ok(())
}
