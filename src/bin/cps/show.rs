//! `cps show` — dump a stored profile's summary and sampled MRC points.

use crate::common::{load_profiles, Args};

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["points"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let points: usize = args.get_parse("points", 16)?;
    if points == 0 {
        return Err("bad --points: need at least one point".into());
    }
    let profiles = load_profiles(&args.positional)?;
    // At most one point per sampled block, which also keeps `i * max`
    // below 2^56.
    if let Some(p) = profiles.iter().find(|p| points > p.mrc.max_blocks()) {
        return Err(format!(
            "bad --points: {points} points, but {} samples {} blocks",
            p.name,
            p.mrc.max_blocks()
        ));
    }
    for p in &profiles {
        println!(
            "{}: accesses {}, distinct {}, access rate {}",
            p.name, p.accesses, p.footprint.distinct, p.access_rate
        );
        let max = p.mrc.max_blocks();
        println!("  cache     miss ratio");
        for i in 0..=points {
            let c = i * max / points;
            println!("  {c:>7}   {:.5}", p.mrc.at(c));
        }
    }
    Ok(())
}
