//! `cps serve` — run the online repartitioning engine as a TCP daemon.
//!
//! Clients connect with the cps-serve wire protocol, bind to a tenant
//! (or the mux pseudo-tenant) via HELLO, stream access batches, and
//! query the control plane; a SHUTDOWN request finishes the engine and
//! returns the run's summary and canonical digest over the wire. The
//! process then exits, optionally writing a metrics snapshot
//! (`--metrics-out`). `--journal` is created before the socket is bound
//! and receives each epoch line as the epoch closes — exactly what
//! `cps replay-online` writes, so `cps inspect` works unchanged on a
//! served run, and a killed daemon leaves a valid prefix.
//!
//! `--port auto` binds an OS-assigned ephemeral port; `--port-file`
//! writes the bound `host:port` so scripts (and the CI smoke leg) can
//! find the daemon without racing its stdout.

use crate::common::{
    create_journal, parse_engine_flags, parse_tenants, render_metrics_snapshot, write_text_out,
    Args,
};
use cache_partition_sharing::engine::engine_name;
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &[
    "tenants",
    "units",
    "bpu",
    "epoch",
    "decay",
    "hysteresis",
    "shards",
    "objective",
    "baseline",
    "host",
    "port",
    "max-conns",
    "idle-timeout",
    "window-cap",
    "resume-grace",
    "journal",
    "metrics-out",
    "port-file",
    "telemetry-port",
    "telemetry-port-file",
];

/// Most records `--window-cap` may ask the sequencing window to hold
/// (17 bytes of ring per record).
const MAX_WINDOW_CAP: usize = 1 << 24;

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let engine_cfg = parse_engine_flags(&args, parse_tenants(&args)?, "units")?;
    let (tenants, units, bpu, epoch, shards) = (
        engine_cfg.tenants,
        engine_cfg.cache.units,
        engine_cfg.cache.blocks_per_unit,
        engine_cfg.epoch_length,
        engine_cfg.shards,
    );

    let host = args.get("host").unwrap_or("127.0.0.1");
    let port = match args.require("port")? {
        "auto" => 0u16,
        "0" => {
            return Err("--port 0 is ambiguous; say --port auto for an \
                        OS-assigned ephemeral port"
                .into());
        }
        p => p
            .parse()
            .map_err(|_| format!("bad --port {p} (a port number, or `auto`)"))?,
    };
    let max_conns: usize = args.get_parse("max-conns", 64)?;
    if max_conns == 0 {
        return Err("--max-conns must admit at least 1 session".into());
    }
    let idle_secs: u64 = args.get_parse("idle-timeout", 30)?;
    if idle_secs == 0 {
        return Err("--idle-timeout must be at least 1 second (sessions \
                    would be torn down before their first frame)"
            .into());
    }
    let window_cap: usize = args.get_parse("window-cap", 1 << 16)?;
    if window_cap == 0 {
        return Err("--window-cap must hold at least 1 record".into());
    }
    if window_cap > MAX_WINDOW_CAP {
        return Err(format!(
            "bad --window-cap {window_cap}: the sequencing window holds at most \
             {MAX_WINDOW_CAP} records"
        ));
    }
    let resume_grace: u64 = args.get_parse("resume-grace", 10)?;
    let telemetry_addr = match args.get("telemetry-port") {
        None => None,
        Some("auto") => Some(format!("{host}:0")),
        Some("0") => {
            return Err(
                "--telemetry-port 0 is ambiguous; say --telemetry-port auto \
                        for an OS-assigned ephemeral port"
                    .into(),
            );
        }
        Some(p) => {
            let port: u16 = p
                .parse()
                .map_err(|_| format!("bad --telemetry-port {p} (a port number, or `auto`)"))?;
            Some(format!("{host}:{port}"))
        }
    };
    let journal_path = args.get("journal").map(str::to_string);
    let metrics_path = args.get("metrics-out").map(str::to_string);
    let port_file = args.get("port-file").map(str::to_string);
    let telemetry_port_file = args.get("telemetry-port-file").map(str::to_string);
    if telemetry_port_file.is_some() && telemetry_addr.is_none() {
        return Err("--telemetry-port-file needs --telemetry-port (there is no \
                    telemetry listener to report)"
            .into());
    }

    let config = ServeConfig {
        engine: engine_cfg,
        max_conns,
        idle_timeout: Duration::from_secs(idle_secs),
        window_cap,
        resume_grace: Duration::from_secs(resume_grace),
        telemetry_addr,
    };

    let journal = journal_path.as_deref().map(create_journal).transpose()?;
    let registry = Arc::new(MetricsRegistry::new());
    let mut server = Server::bind(&format!("{host}:{port}"), config, Arc::clone(&registry))?;
    if let Some(file) = journal {
        server.set_journal(file);
    }
    let addr = server.local_addr()?;
    if let Some(path) = &port_file {
        write_text_out(path, &format!("{addr}\n"))?;
    }
    if let Some(path) = &telemetry_port_file {
        let taddr = server
            .telemetry_addr()
            .ok_or("telemetry listener has no address")?;
        write_text_out(path, &format!("{taddr}\n"))?;
    }
    println!(
        "cps serve: listening on {addr} ({} engine, {tenants} tenants, \
         {units} x {bpu}-block units, epoch {epoch}, max {max_conns} sessions, \
         idle timeout {idle_secs}s)",
        engine_name(shards)
    );
    if let Some(taddr) = server.telemetry_addr() {
        println!("cps serve: telemetry on http://{taddr}/metrics");
    }

    let outcome = server.run()?;
    let summary = &outcome.run.summary;
    println!(
        "served {} connections, {} records, {} epochs; cumulative miss ratio {:.4}",
        outcome.connections,
        outcome.records,
        summary.epochs,
        summary.miss_ratio()
    );
    if let Some(path) = &journal_path {
        println!(
            "journal: {} epochs ({} engine) -> {path}",
            summary.epochs,
            engine_name(shards)
        );
    }
    if let Some(path) = &metrics_path {
        let snapshot = registry.snapshot();
        write_text_out(path, &render_metrics_snapshot(path, &snapshot))?;
        if path != "-" {
            println!("metrics: {} samples -> {path}", snapshot.samples.len());
        }
    }
    Ok(())
}
