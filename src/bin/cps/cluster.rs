//! `cps cluster` — run the multi-node hierarchical coordinator over a
//! synthetic workload mix.
//!
//! Two modes share every solver knob:
//!
//! * **Local** (default): `--nodes N` spins up N in-process engine
//!   nodes of `--node-capacity` units each.
//! * **Remote**: `--connect host:port,host:port,...` drives live
//!   `cps serve` daemons (engine=single, a huge `--epoch` so only the
//!   coordinator's clock fires) through the wire protocol.
//!
//! Tenants are placed by footprint-balanced greedy LPT (using each
//! workload's footprint hint); the solve stage's placement step
//! re-homes one tenant when the two-level gain clears
//! `--migrate-threshold` (say `off` to pin the placement). The streamed
//! run journal (`--journal`) validates under the flat schema with the
//! cluster's logical allocation — `cps inspect` works unchanged.

use crate::common::{
    create_journal, parse_engine_flags, render_metrics_snapshot, write_text_out, Args, Mix,
    MIX_FLAGS,
};
use cache_partition_sharing::cluster::{place_greedy, ClusterConfig, ClusterNode, Coordinator};
use cache_partition_sharing::prelude::*;

/// Every flag this subcommand reads besides [`MIX_FLAGS`].
const FLAGS: &[&str] = &[
    "units",
    "bpu",
    "nodes",
    "node-capacity",
    "connect",
    "migrate-threshold",
    "epoch",
    "decay",
    "hysteresis",
    "objective",
    "journal",
    "metrics-out",
];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS, MIX_FLAGS])?;
    let mix = Mix::parse(&args)?;
    if mix.specs.len() < 2 {
        return Err("cluster needs at least two comma-separated workloads".into());
    }
    let tenants = mix.specs.len();
    let engine_cfg = parse_engine_flags(&args, tenants, "units")?;
    let (units, bpu, epoch) = (
        engine_cfg.cache.units,
        engine_cfg.cache.blocks_per_unit,
        engine_cfg.epoch_length,
    );
    let migrate_threshold = match args.get("migrate-threshold").unwrap_or("0.05") {
        "off" => None,
        s => match s.parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => Some(t),
            Ok(t) => {
                return Err(format!(
                    "--migrate-threshold must be a finite non-negative ratio, got {t}"
                ))
            }
            Err(_) => return Err(format!("bad --migrate-threshold `{s}` (a ratio, or `off`)")),
        },
    };
    let journal_path = args.get("journal");
    let journal = journal_path.map(create_journal).transpose()?;
    let metrics_path = args.get("metrics-out").map(str::to_string);

    // Build the node fleet: remote daemons if --connect, else local
    // in-process engines. Its size is checked before any node exists.
    let connect = args.get("connect");
    if connect.is_some() && args.get("nodes").is_some() {
        return Err("--connect names the node fleet; --nodes only applies to local mode".into());
    }
    if connect.is_some() && args.get("node-capacity").is_some() {
        return Err(
            "--node-capacity only applies to local mode; remote daemons bring their own \
             capacity"
                .into(),
        );
    }
    let addrs: Option<Vec<&str>> = connect.map(|list| list.split(',').collect());
    let node_count = match &addrs {
        Some(addrs) => addrs.len(),
        None => args.get_parse("nodes", 2)?,
    };
    if node_count > tenants {
        return Err(format!(
            "{node_count} nodes for {tenants} tenants; empty nodes can never receive budget, \
             so drop to --nodes {tenants} or fewer"
        ));
    }
    let nodes: Vec<ClusterNode> = match &addrs {
        Some(addrs) => {
            for (i, a) in addrs.iter().enumerate() {
                if addrs[..i].contains(a) {
                    return Err(format!(
                        "--connect lists {a} twice; one session per node, or the cluster \
                         would fight itself"
                    ));
                }
            }
            addrs
                .iter()
                .map(|addr| ClusterNode::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
                .collect::<Result<_, _>>()?
        }
        None => {
            if node_count == 0 {
                return Err("--nodes must be at least 1 (a cluster needs somewhere to \
                            put its tenants)"
                    .into());
            }
            let node_cfg = parse_engine_flags(&args, tenants, "node-capacity")?;
            let capacity = node_cfg.cache.units;
            if capacity < tenants {
                return Err(format!(
                    "--node-capacity {capacity} is below the {tenants}-tenant count; every \
                     node carries all tenant slots and cannot even equal-split its cache"
                ));
            }
            if node_count * capacity < units {
                return Err(format!(
                    "{node_count} nodes x {capacity} units = {} cannot host a {units}-unit \
                     cluster; raise --nodes or --node-capacity",
                    node_count * capacity
                ));
            }
            (0..node_count)
                .map(|_| ClusterNode::local(node_cfg.clone()))
                .collect()
        }
    };
    for node in &nodes {
        if node.tenants() != tenants {
            return Err(format!(
                "node {} carries {} tenant slots but the mix has {tenants} workloads; \
                 start daemons with --tenants {tenants}",
                node.addr().unwrap_or("local"),
                node.tenants()
            ));
        }
    }

    let footprints: Vec<u64> = mix.specs.iter().map(|s| s.footprint_hint()).collect();
    let placement = place_greedy(&footprints, node_count);

    let mut config = ClusterConfig::new(units, bpu, epoch)
        .objective(engine_cfg.objective.clone())
        .hysteresis(engine_cfg.min_repartition_units);
    config.migrate_threshold = migrate_threshold;

    let registry = MetricsRegistry::new();
    let mut coordinator = Coordinator::with_metrics(config, nodes, placement.clone(), &registry)?;
    if let Some(file) = journal {
        coordinator.set_journal(file);
    }

    let mode = match &connect {
        Some(list) => format!("remote ({list})"),
        None => format!("local ({node_count} nodes)"),
    };
    println!(
        "cps cluster: {mode}, {tenants} tenants, {units} x {bpu}-block logical units, \
         epoch {epoch}, placement {placement:?}"
    );

    coordinator.run(mix.stream());
    let report = coordinator
        .finish()
        .map_err(|e| format!("--journal: {e}"))?;
    let summary = &report.run.summary;

    println!(
        "{} epochs, {} repartitions, {} migrations, cumulative miss ratio {:.4}",
        summary.epochs,
        summary.repartitions,
        report.migrations.len(),
        summary.miss_ratio()
    );
    for m in &report.migrations {
        let why = m.gain.map_or("feasibility rescue".to_string(), |g| {
            format!("gain {:.1}%", g * 100.0)
        });
        println!(
            "  epoch {:>4}: tenant {} node {} -> {} ({why})",
            m.epoch, m.tenant, m.from, m.to
        );
    }
    for f in &report.failures {
        println!(
            "  node {} FAILED at epoch {} ({})",
            f.node, f.epoch, f.error
        );
    }
    if report.dropped_records > 0 {
        println!(
            "  {} records dropped on failed nodes",
            report.dropped_records
        );
    }

    if let Some(path) = journal_path {
        println!(
            "journal: {} epochs (cluster) -> {path}, digest {:016x}",
            summary.epochs, report.run.digest
        );
    }
    if let Some(path) = &metrics_path {
        let snapshot = registry.snapshot();
        write_text_out(path, &render_metrics_snapshot(path, &snapshot))?;
        if path != "-" {
            println!("metrics: {} samples -> {path}", snapshot.samples.len());
        }
    }
    // Surface a non-zero exit when the run degraded: a cluster that
    // lost nodes should not look like a clean benchmark.
    if !report.failures.is_empty() {
        return Err(format!(
            "{} node(s) failed during the run",
            report.failures.len()
        ));
    }
    Ok(())
}
