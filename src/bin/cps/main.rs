//! `cps` — command-line front end for cache partition-sharing.
//!
//! The workflow mirrors the paper's tooling: profile each program once
//! (producing a binary footprint file), then compose, predict, and
//! optimize any co-run group from the profiles alone.
//!
//! ```text
//! cps trace gen --workloads loop:80 --len 100000 --out a.trace [--seed 0]
//! cps profile  a.trace --out a.cpsp [--rate 1.0] [--max-blocks 1024] [--name A]
//! cps show     a.cpsp [--points 16]
//! cps predict  a.cpsp b.cpsp ... --cache 1024
//! cps optimize a.cpsp b.cpsp ... --units 1024 [--bpu 1]
//!              [--objective OBJ] [--baseline none|equal|natural]
//! ```
//!
//! Records enter through two doors in `common`: trace files through
//! `open_trace_source`, `--workloads` mixes through one lazy `Mix`.
//!
//! Each subcommand lives in its own module; this file only parses the
//! command word and dispatches.

use std::process::ExitCode;

mod bench_net;
mod cluster;
mod common;
mod inspect;
mod optimize;
mod phase_plan;
mod predict;
mod profile;
mod replay_online;
mod serve;
mod show;
mod stall;
mod top;
mod tournament;
mod trace_cmd;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `cps <subcommand> --help` prints the one usage text, whatever the
    // subcommand's own flag table says.
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "profile" => profile::run(rest),
        "show" => show::run(rest),
        "predict" => predict::run(rest),
        "optimize" => optimize::run(rest),
        "stall" => stall::run(rest),
        "phase-plan" => phase_plan::run(rest),
        "replay-online" => replay_online::run(rest),
        "serve" => serve::run(rest),
        "bench-net" => bench_net::run(rest),
        "cluster" => cluster::run(rest),
        "tournament" => tournament::run(rest),
        "inspect" => inspect::run(rest),
        "top" => top::run(rest),
        "trace" => trace_cmd::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cps: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
cps — optimal cache partition-sharing toolkit

USAGE:
  cps profile  TRACE --out FILE [--rate R] [--max-blocks C] [--name NAME]
               [--burst N --ratio K]   (one program's trace; bursty sampling)
  cps show     PROFILE [--points K]
  cps predict  PROFILE... --cache BLOCKS
  cps optimize PROFILE... --units U [--bpu B]
               [--objective OBJ] [--baseline none|equal|natural]
  cps stall    PROFILE... --cache BLOCKS   (co-run or take turns?)
  cps phase-plan TRACE... --units U [--segments S] [--threshold T]
               (per-phase optimal partitions from one-program traces)
  cps replay-online --workloads SPEC,SPEC,... --units U [--bpu B]
               [--len N] [--epoch E] [--rates R,R,...] [--seed S]
               [--decay D] [--hysteresis H] [--shards N]
               [--objective OBJ] [--baseline none|equal|natural]
               [--journal FILE] [--metrics-out FILE]
               | --trace-file FILE --tenants K --units U [TRACE FLAGS]
               (live epoch-driven repartitioning vs static-optimal and
               free-for-all sharing; --shards replays the same stream
               with its tenants spread over N shards, checks the
               canonical journal digests match and
               reports the speedup; --journal streams the
               epoch event journal for `cps inspect`; --metrics-out
               writes a metrics snapshot, Prometheus text by default or
               JSONL if FILE ends in .jsonl; --trace-file streams an
               external trace in constant memory instead of a mix; the
               baselines need a mix)
  cps serve    --tenants K --units U --port P|auto [--bpu B] [--epoch E]
               [--decay D] [--hysteresis H] [--shards N]
               [--objective OBJ] [--baseline none|equal|natural]
               [--host H] [--max-conns N] [--idle-timeout SECS]
               [--window-cap N] [--resume-grace SECS]
               [--journal FILE] [--metrics-out FILE] [--port-file FILE]
               [--telemetry-port P|auto] [--telemetry-port-file FILE]
               (host the online engine as a TCP daemon speaking the
               cps-serve wire protocol; clients bind to tenants via
               HELLO and stream access batches — concurrent connections
               send position-sequenced batches reassembled in a
               --window-cap record window, and dropped sessions may
               RESUME within --resume-grace; a SHUTDOWN request
               finishes the engine and returns the journal's summary
               and digest; --journal streams the epoch journal;
               --port auto picks an ephemeral port and --port-file
               records the bound address; --telemetry-port serves a
               Prometheus text scrape at http://HOST:P/metrics, while
               SUBSCRIBE observers such as `cps top` attach to the
               wire port itself)
  cps bench-net --workloads SPEC,SPEC,... --port P [--host H] [--len N]
               [--rates R,R,...] [--seed S] [--batch N]
               [--connections N] [--kill-resume true]
               [--observe true] [--scrape HOST:PORT]
               | --trace-file FILE --port P [TRACE FLAGS]
               (replay an interleaved stream against a live `cps serve`
               and verify the served run is report-identical (equal
               canonical journal digests) to the same engine run in
               process; --connections N (at most 256) deals the
               stream across N sequenced connections, --kill-resume
               true drops one mid-stream and rejoins it via RESUME;
               --observe true rides a SUBSCRIBE observer along the run
               and --scrape hammers the daemon's /metrics endpoint —
               identity must hold with both attached; identity failure
               exits nonzero; --trace-file streams an external trace
               instead, tenant count taken from the server)
  cps cluster  --workloads SPEC,SPEC,... --units U [--bpu B]
               [--nodes N] [--node-capacity U] | [--connect H:P,H:P,...]
               [--migrate-threshold T|off]
               [--len N] [--epoch E] [--rates R,R,...] [--seed S]
               [--decay D] [--hysteresis H] [--objective OBJ]
               [--journal FILE] [--metrics-out FILE]
               (multi-node hierarchical partition-sharing: a coordinator
               splits U logical units across engine nodes with a
               two-level DP each epoch; local mode spins up in-process
               nodes, --connect drives live `cps serve` daemons started
               without --shards and with a huge --epoch; tenants are placed
               by footprint-balanced greedy LPT and one is re-homed at a
               boundary when the two-level gain clears
               --migrate-threshold; the journal is the cluster's logical
               view and `cps inspect` reads it unchanged)
  cps tournament [--objectives OBJ,OBJ,...] [--group-size K]
               [--programs N] [--units U] [--bpu B] [--len N]
               [--journal FILE]
               | --trace-file FILE --tenants K [TRACE FLAGS]
               (sweep every K-program co-run group of the SPEC-like
               study set under each objective, evaluate all six
               allocation schemes, and print a Table-I-style comparison
               of Optimal's gap over every other scheme per objective;
               --journal writes the machine-readable tournament journal
               that `cps inspect` renders back; --trace-file evaluates
               the schemes on the one real co-run group an external
               trace records, per objective)
  cps trace    stat FILE [TRACE FLAGS] [--tenants K]
               (one bounded-memory pass: record/op counts, per-tenant
               histogram, distinct-block footprint — exact up to a cap,
               sketched beyond — block-id range, malformed report)
  cps trace    convert IN --out OUT [--to binary|text|csv] [TRACE FLAGS]
               (re-encode any readable trace, baking the tenancy policy
               and block mapping in; binary output marks its addresses
               pre-mapped so replays skip the mapping automatically)
  cps trace    gen --workloads SPEC,SPEC,... --out FILE [--to FORMAT]
               [--len N] [--rates R,R,...] [--seed S]
               (write the exact interleaved stream `cps replay-online`
               would synthesize from the same flags, so file-driven and
               generator-driven runs are bit-for-bit comparable)
  cps inspect  JOURNAL [--follow true] [--chrome-trace OUT.json]
               [--canonical OUT|-]
               (parse + validate an epoch or tournament journal; epoch
               journals print stage-time breakdowns, the
               allocation-churn timeline, per-tenant miss-ratio
               trajectories, and per-node trace spans;
               tournament journals print the comparison table; `-`
               reads stdin; --follow tails a journal still being
               written, printing each epoch as it lands and exiting at
               the summary; --chrome-trace exports the timeline as a
               Chrome trace-event JSON for a trace viewer; schema
               drift or totals that don't round-trip exit nonzero)
  cps top      HOST:PORT [--refresh MS] [--once true]
               (live dashboard over a running `cps serve` daemon via
               the read-only SUBSCRIBE verb: pushed epoch records,
               per-tenant miss ratios, a group miss-ratio sparkline,
               and server counters, refreshed in place every --refresh
               ms; --once true prints a single plain snapshot and
               exits, for scripts and smoke tests)

TRACE FLAGS (for `--trace-file` and `cps trace`):
  --trace-format text|csv|binary|auto   input format (default: sniff)
  --tenancy explicit|map:TID=T,..|first-seen|rr:K
                     how records are attributed to tenants (default:
                     explicit — the record's own tenant/thread field)
  --block-bytes B    bytes per cache block for address mapping
                     (default 64; pre-mapped binary inputs override)
  --set-hash true    splitmix64-hash block ids (set-index dispersal)
  --lenient true     skip malformed lines/records instead of stopping
                     (skips are counted and the first few reported)

WORKLOAD SPECS (for `--workloads`, at most 256 per mix):
  loop:WS            sequential loop over WS blocks
  strided:REGION:S   strided sweep, stride S over REGION blocks
  uniform:REGION     uniform random over REGION blocks
  zipf:REGION:ALPHA  Zipfian over REGION blocks, exponent ALPHA
  chase:REGION       pointer chase over REGION blocks
  stencil:ROWSxCOLS  3-point vertical stencil sweep
  walk:REGION:WIN:DWELL  drifting working set

OBJECTIVES (for `--objective` / `--objectives`):
  miss-ratio         minimize access-weighted group miss ratio (default;
                     aliases: miss-ratio-sum, throughput)
  maxmin             minimize the worst tenant miss ratio (aliases:
                     max-miss-ratio, qos)
  utility[:C]        maximize concave hit utility, curvature C in (0,1]
                     (default 0.5)
  value-weighted[:W1,W2,..]  minimize value-weighted misses; one positive
                     weight per tenant (bare = all ones)
  max-slowdown       minimize the worst slowdown vs the whole cache";
