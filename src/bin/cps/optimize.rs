//! `cps optimize` — the paper's optimal partition: DP over per-program
//! cost curves, with optional equal/natural fairness baselines.
//!
//! Shares, baseline caps, and cost-curve construction all come from the
//! `cps-core` helpers, so this command and the online engine's solver
//! stage build their DP inputs the same way.

use crate::common::{flag_error, load_profiles, parse_objective, print_allocation_table, Args};
use cache_partition_sharing::core::{
    access_shares, build_cost_curves, equal_baseline_caps, natural_baseline_caps,
};
use cache_partition_sharing::engine::check_cache;
use cache_partition_sharing::prelude::*;

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["units", "bpu", "baseline", "objective"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let profiles = load_profiles(&args.positional)?;
    let units: usize = args
        .require("units")?
        .parse()
        .map_err(|_| "bad --units".to_string())?;
    let bpu: usize = args.get_parse("bpu", 1)?;
    let config = check_cache(units, bpu).map_err(|e| flag_error(e, "units"))?;
    for p in &profiles {
        if p.mrc.max_blocks() < config.blocks() {
            return Err(format!(
                "{}: profiled only to {} blocks but cache is {}; re-profile with --max-blocks {}",
                p.name,
                p.mrc.max_blocks(),
                config.blocks(),
                config.blocks()
            ));
        }
    }
    let members: Vec<&SoloProfile> = profiles.iter().collect();
    let mrcs: Vec<&MissRatioCurve> = members.iter().map(|m| &m.mrc).collect();
    let baseline = args.get("baseline").unwrap_or("none");

    let weights: Vec<f64> = members.iter().map(|m| m.access_rate).collect();
    let shares = access_shares(&weights);

    // Baseline caps, if requested.
    let caps: Option<Vec<f64>> = match baseline {
        "none" => None,
        "equal" => Some(equal_baseline_caps(&mrcs, &config)),
        "natural" => Some(natural_baseline_caps(&members, &mrcs, &config)),
        other => return Err(format!("unknown --baseline {other} (none|equal|natural)")),
    };

    let objective = parse_objective(&args)?;
    objective
        .validate_for(members.len())
        .map_err(|e| format!("bad --objective: {e}"))?;
    let costs = build_cost_curves(&mrcs, &config, &shares, &objective, caps.as_deref());
    let result = optimal_partition(&costs, units, &objective)
        .ok_or("no feasible allocation under the requested baseline")?;

    println!(
        "optimal partition of {units} x {bpu}-block units ({} blocks), objective {}, baseline {baseline}:",
        config.blocks(),
        objective.name()
    );
    print_allocation_table(&profiles, &config, &result, &shares);
    Ok(())
}
