//! `cps stall` — should a batch co-run or take turns? Exhaustive search
//! over serial batch partitions under the performance model.

use crate::common::{load_profiles, Args};
use cache_partition_sharing::core::perf::PerfModel;
use cache_partition_sharing::core::stall::stall_advice;
use cache_partition_sharing::prelude::*;

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["cache"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let profiles = load_profiles(&args.positional)?;
    let cache: usize = args
        .require("cache")?
        .parse()
        .map_err(|_| "bad --cache".to_string())?;
    if cache == 0 {
        return Err("bad --cache: the cache needs at least one block".into());
    }
    if profiles.len() > 10 {
        return Err("stall search is exhaustive over batch partitions; use <= 10 programs".into());
    }
    let members: Vec<&SoloProfile> = profiles.iter().collect();
    let model = PerfModel::default();
    let (best, corun, gain) = stall_advice(&members, &CacheConfig::new(cache, 1), &model);
    println!("co-run everything : {:.3e} model cycles", corun.total_time);
    let batches: Vec<String> = best
        .batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|&i| members[i].name.as_str())
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect();
    println!(
        "best schedule     : {:.3e} model cycles  [{}]",
        best.total_time,
        batches.join(" ; then ")
    );
    if gain > 0.01 {
        println!(
            "advice: STALL — run the batches serially, saving {:.1}%",
            gain * 100.0
        );
    } else {
        println!("advice: co-run freely");
    }
    Ok(())
}
