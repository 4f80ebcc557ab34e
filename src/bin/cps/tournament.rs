//! `cps tournament` — schemes × objectives over every co-run group.
//!
//! Enumerates every `k`-program group of the SPEC-like study set,
//! evaluates all six allocation schemes under each requested objective
//! (one sweep per objective), and reports, per objective, how
//! far every non-optimal scheme trails Optimal — a Table-I-style
//! comparison generalized over the objective layer. The table is
//! printed to stdout and, with `--journal`, written as a tournament
//! journal that `cps inspect` renders back.

use super::common::{
    flag_error, open_trace_source, parse_tenants, parse_trace_opts, print_source_stats,
    tenant_profiles, write_text_out, Args, Records, TRACE_FLAGS,
};
use cache_partition_sharing::engine::{check_cache, MAX_TENANTS};
use cache_partition_sharing::obs::{TournamentHeader, TournamentJournal, TournamentRow};
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::trace::spec_like::study_programs_scaled;

/// Every scheme Optimal is compared against, in the paper's order.
const VERSUS: [Scheme; 5] = [
    Scheme::Equal,
    Scheme::Natural,
    Scheme::EqualBaseline,
    Scheme::NaturalBaseline,
    Scheme::Sttw,
];

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &[
    "objectives",
    "group-size",
    "programs",
    "units",
    "bpu",
    "len",
    "journal",
    "trace-file",
    "tenants",
];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS, TRACE_FLAGS])?;
    if args.get("trace-file").is_some() {
        return run_trace_file(&args);
    }
    let group_size: usize = args.get_parse("group-size", 4)?;
    let programs: usize = args.get_parse("programs", 9)?;
    let units: usize = args.get_parse("units", 32)?;
    let bpu: usize = args.get_parse("bpu", 32)?;
    let len: usize = args.get_parse("len", 60_000)?;

    if group_size == 0 {
        return Err("bad --group-size: a co-run group needs at least 1 tenant".into());
    }
    if len == 0 {
        return Err("--len must be at least 1".into());
    }
    let specs = study_programs_scaled(len);
    if programs == 0 || programs > specs.len() {
        return Err(format!(
            "bad --programs: the study set has {} programs, asked for {programs}",
            specs.len()
        ));
    }
    if group_size > programs {
        return Err(format!(
            "bad --group-size: {group_size} exceeds the {programs} study programs \
             (no co-run group that large exists)"
        ));
    }
    let config = check_cache(units, bpu).map_err(|e| flag_error(e, "units"))?;

    let objectives = parse_objectives(&args)?;
    for objective in &objectives {
        objective
            .validate_for(group_size)
            .map_err(|e| format!("bad --objectives: {e} (the group size is {group_size})"))?;
    }
    let names: Vec<String> = objectives.iter().map(|o| o.name()).collect();

    eprintln!(
        "profiling {programs} programs ({len} accesses each, cache {} blocks)...",
        config.blocks()
    );
    let study = Study::build(&specs[..programs], config);

    let mut rows: Vec<TournamentRow> = Vec::new();
    let mut groups = 0usize;
    for objective in &objectives {
        let records = sweep_groups_with(&study, group_size, objective);
        groups = records.len();
        for versus in VERSUS {
            let stats = gap_stats(&records, versus)
                .ok_or_else(|| format!("objective {}: empty sweep", objective.name()))?;
            rows.push(TournamentRow {
                objective: objective.name(),
                versus: versus.name().to_string(),
                mean_gap: stats.summary.mean,
                median_gap: stats.summary.median,
                max_gap: stats.summary.max,
                improved_10pct: stats.improved_10pct,
                improved_20pct: stats.improved_20pct,
            });
        }
        eprintln!("swept {} groups under {}", groups, objective.name());
    }

    let journal = TournamentJournal {
        header: TournamentHeader {
            programs,
            group_size,
            groups,
            units,
            bpu,
            objectives: names,
        },
        rows,
    };
    journal.validate()?;

    print!("{}", render_table(&journal));

    if let Some(path) = args.get("journal") {
        let mut text = journal.header.to_json_line();
        text.push('\n');
        for r in &journal.rows {
            text.push_str(&r.to_json_line());
            text.push('\n');
        }
        write_text_out(path, &text)?;
        if path != "-" {
            eprintln!("tournament journal written to {path}");
        }
    }
    Ok(())
}

/// Parses `--objectives` up front so a typo in the last one fails
/// before any sweeping starts; duplicate names are rejected. Tenant-
/// count validation is the caller's (the count differs per mode).
fn parse_objectives(args: &Args) -> Result<Vec<Objective>, String> {
    let mut objectives: Vec<Objective> = Vec::new();
    for spec in args
        .get("objectives")
        .unwrap_or("miss-ratio,maxmin")
        .split(',')
    {
        // `value-weighted:w1,w2,..` carries commas inside one spec, so
        // re-join a numeric continuation onto the previous objective.
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("bad --objectives: empty objective spec in the list".into());
        }
        if spec.parse::<f64>().is_ok() {
            match objectives.last_mut() {
                Some(Objective::ValueWeighted { weights: _ }) => {
                    let prev = objectives.pop().expect("just matched");
                    let name = prev.name();
                    let sep = if name.contains(':') { ',' } else { ':' };
                    let rejoined = format!("{name}{sep}{spec}");
                    objectives.push(
                        Objective::parse(&rejoined)
                            .map_err(|e| format!("bad --objectives: {e}"))?,
                    );
                    continue;
                }
                _ => {
                    return Err(format!(
                        "bad --objectives: stray number `{spec}` (weights belong \
                         after `value-weighted:`)"
                    ))
                }
            }
        }
        let objective = Objective::parse(spec).map_err(|e| format!("bad --objectives: {e}"))?;
        objectives.push(objective);
    }
    let names: Vec<String> = objectives.iter().map(|o| o.name()).collect();
    for (i, n) in names.iter().enumerate() {
        if names[..i].contains(n) {
            return Err(format!("bad --objectives: `{n}` is listed twice"));
        }
    }
    Ok(objectives)
}

/// `--trace-file` mode: instead of sweeping synthetic co-run groups,
/// profile the one real group the trace records — split the canonical
/// stream per tenant, build a [`SoloProfile`] for each, and evaluate
/// all six allocation schemes under every requested objective. This
/// mode materializes one block vector per tenant (profiling needs the
/// whole sequence), so it is for traces that fit in memory; `cps
/// replay-online --trace-file` is the constant-memory path.
fn run_trace_file(args: &Args) -> Result<(), String> {
    let path = args.require("trace-file")?;
    let k = parse_tenants(args)?;
    if !(1..=MAX_TENANTS).contains(&k) {
        return Err(format!(
            "bad --tenants: {k} tenants; a co-run group holds 1 to {MAX_TENANTS}"
        ));
    }
    let units: usize = args.get_parse("units", 32)?;
    let bpu: usize = args.get_parse("bpu", 32)?;
    let config = check_cache(units, bpu).map_err(|e| flag_error(e, "units"))?;
    let objectives = parse_objectives(args)?;
    for objective in &objectives {
        objective
            .validate_for(k)
            .map_err(|e| format!("bad --objectives: {e} (the trace has {k} tenants)"))?;
    }
    let opts = parse_trace_opts(args, k)?;

    let (source, format) = open_trace_source(path, &opts)?;
    let mut records = Records::file(path, source);
    let profiles = tenant_profiles(&mut records, k, config.blocks())?;
    let stats = records.source_stats().expect("a file source");
    print_source_stats(&stats);
    if let Some(i) = profiles.iter().position(|p| p.accesses == 0) {
        return Err(format!(
            "tenant {i} has no accesses in {path}; a co-run profile needs \
             every tenant present (check --tenancy and --tenants)"
        ));
    }
    let refs: Vec<&SoloProfile> = profiles.iter().collect();

    println!(
        "tournament (real trace): {path} ({} format), {k} tenants, {} records, \
         cache {units}x{bpu} = {} blocks",
        format.name(),
        stats.records,
        config.blocks()
    );
    for objective in &objectives {
        let eval = evaluate_group_with(&refs, &config, objective);
        println!("\nobjective {}:", objective.name());
        println!(
            "  {:<17} {:>12} {:>9}  allocation (units)",
            "scheme", "group cost", "gap%"
        );
        for result in &eval.results {
            let gap = eval.gap_of_optimal_over(result.scheme);
            let alloc: Vec<String> = result.allocation.iter().map(|u| u.to_string()).collect();
            println!(
                "  {:<17} {:>12.4} {:>9.2}  {}",
                result.scheme.name(),
                result.group_miss_ratio,
                gap,
                alloc.join("/")
            );
        }
    }
    Ok(())
}

/// Renders the Table-I-style comparison; shared with `cps inspect`.
pub fn render_table(journal: &TournamentJournal) -> String {
    let h = &journal.header;
    let mut out = format!(
        "tournament: {} programs, {}-tenant groups ({} per objective), \
         cache {}x{} = {} blocks\n\
         gap of Optimal over each scheme, percent of the scheme's group cost\n\n",
        h.programs,
        h.group_size,
        h.groups,
        h.units,
        h.bpu,
        h.units * h.bpu,
    );
    out.push_str(&format!(
        "{:<16} {:<17} {:>8} {:>8} {:>8} {:>7} {:>7}\n",
        "objective", "versus", "mean%", "median%", "max%", ">=10%", ">=20%"
    ));
    for row in &journal.rows {
        out.push_str(&format!(
            "{:<16} {:<17} {:>8.2} {:>8.2} {:>8.2} {:>6.0}% {:>6.0}%\n",
            row.objective,
            row.versus,
            row.mean_gap,
            row.median_gap,
            row.max_gap,
            row.improved_10pct * 100.0,
            row.improved_20pct * 100.0,
        ));
    }
    out
}
