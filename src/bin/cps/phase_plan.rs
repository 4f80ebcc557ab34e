//! `cps phase-plan` — per-phase optimal partitions from raw traces,
//! with a switch threshold to suppress churn between similar phases.

use crate::common::{read_program, Args};
use cache_partition_sharing::core::phased::{
    phase_aware_partition, predicted_plan_miss_ratio, PhasedProfile,
};
use cache_partition_sharing::prelude::*;

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["units", "segments", "threshold"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    if args.positional.is_empty() {
        return Err("phase-plan wants at least one TRACE file".into());
    }
    let units: usize = args
        .require("units")?
        .parse()
        .map_err(|_| "bad --units".to_string())?;
    let segments: usize = args.get_parse("segments", 8)?;
    let threshold: f64 = args.get_parse("threshold", 0.02)?;
    if units == 0 {
        return Err("bad --units: the cache needs at least one unit".into());
    }
    if segments == 0 {
        return Err("bad --segments: a plan needs at least one segment".into());
    }
    let config = CacheConfig::new(units, 1);
    let mut profiles = Vec::new();
    for path in &args.positional {
        let blocks = read_program(path)?;
        if blocks.len() < segments {
            return Err(format!("{path}: trace shorter than {segments} segments"));
        }
        let name = path
            .rsplit('/')
            .next()
            .unwrap_or(path)
            .trim_end_matches(".trace")
            .to_string();
        profiles.push(PhasedProfile::from_trace(
            name,
            &blocks,
            1.0,
            config.blocks(),
            segments,
        ));
    }
    let refs: Vec<&PhasedProfile> = profiles.iter().collect();
    let plan = phase_aware_partition(&refs, &config, threshold);
    println!("phase-aware plan: {units} units, {segments} segments, switch threshold {threshold}");
    print!("{:<10}", "segment");
    for p in &profiles {
        print!("{:>14}", p.name);
    }
    println!();
    for (s, alloc) in plan.allocations.iter().enumerate() {
        print!("{s:<10}");
        for &u in alloc {
            print!("{u:>14}");
        }
        println!();
    }
    println!(
        "\n{} repartitionings; predicted group miss ratio {:.4}",
        plan.reconfigurations(),
        predicted_plan_miss_ratio(&refs, &config, &plan)
    );
    Ok(())
}
