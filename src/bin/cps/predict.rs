//! `cps predict` — HOTL composition: per-program occupancy and miss
//! ratios under free-for-all sharing (the natural partition).

use crate::common::{load_profiles, Args};
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
    let members: Vec<&SoloProfile> = profiles.iter().collect();
    let model = CoRunModel::new(members);
    let np = model.natural_partition(cache as f64);
    let mrs = model.member_shared_miss_ratios(cache as f64);
    println!("free-for-all sharing of a {cache}-block cache (natural partition):");
    println!(
        "{:<20} {:>12} {:>12} {:>12}",
        "program", "occupancy", "shared mr", "solo mr"
    );
    for (i, p) in profiles.iter().enumerate() {
        println!(
            "{:<20} {:>12.1} {:>12.4} {:>12.4}",
            p.name,
            np.occupancy[i],
            mrs[i],
            p.mrc.at(cache)
        );
    }
    println!(
        "group miss ratio: {:.4}{}",
        model.shared_group_miss_ratio(cache as f64),
        if np.window.is_none() {
            "  (total footprint fits; the cache never fills)"
        } else {
            ""
        }
    );
    Ok(())
}
