//! Result files: what was measured, on what, by which binary.

use crate::json::Value;
use crate::layers::Probe;
use crate::proc::run_capture;
use crate::stats;
use crate::workloads::{Kind, Outcome, Workload, END_TO_END};
use std::path::Path;
use std::process::Command;
use std::time::UNIX_EPOCH;

pub const SCHEMA: &str = "cps-benchmark/1";

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    run_capture(Command::new(program).args(args).current_dir(dir))
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host and build the numbers belong to. A checkout that is not a
/// git repository (the benchmark driver's) has no revision to report.
pub fn host(cps: &Path) -> Value {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    let unknown = || "unknown".to_string();
    let rev = command_line("git", &["rev-parse", "HEAD"], root);
    let dirty = rev
        .as_ref()
        .map(|_| command_line("git", &["status", "--porcelain"], root).is_some());
    let mtime = std::fs::metadata(cps)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(Value::Null, |d| Value::Num(d.as_secs() as f64));
    Value::obj(vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "kernel",
            Value::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            ),
        ),
        (
            "rustc",
            Value::str(command_line("rustc", &["-V"], root).unwrap_or_else(unknown)),
        ),
        ("git_rev", Value::str(rev.unwrap_or_else(unknown))),
        ("git_dirty", dirty.map_or(Value::Null, Value::Bool)),
        ("profile", Value::str("release")),
        ("cps_binary", Value::str(cps.display().to_string())),
        ("cps_binary_mtime", mtime),
    ])
}

fn sizes(w: &Workload) -> Vec<(&'static str, Value)> {
    vec![
        ("name", Value::str(w.name)),
        ("why", Value::str(w.why)),
        ("item", Value::str(w.item)),
        ("items_per_pass", Value::Num(w.items() as f64)),
        ("stream_records", Value::Num(w.stream.records as f64)),
        (
            "engine",
            Value::obj(vec![
                ("tenants", Value::Num(w.engine.tenants as f64)),
                ("units", Value::Num(w.engine.units as f64)),
                ("bpu", Value::Num(w.engine.bpu as f64)),
                ("epoch", Value::Num(w.engine.epoch as f64)),
            ]),
        ),
        (
            "load",
            Value::str(match w.kind {
                Kind::Serve { connections: 1 } => "1 connection; free-running + closed-loop passes",
                Kind::Serve { .. } => "2 connections; free-running + closed-loop passes",
                Kind::Replay { .. } => "in-process replay, no clients",
                Kind::Tournament { .. } => "one batch command, no clients",
            }),
        ),
    ]
}

fn checks(
    attempted: u64,
    failed: u64,
    violations: &[String],
    input_digest: &str,
    journal_digest: &str,
) -> Vec<(&'static str, Value)> {
    vec![
        ("input_digest", Value::str(input_digest)),
        ("journal_digest", Value::str(journal_digest)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("correct", Value::Bool(violations.is_empty() && failed == 0)),
        (
            "violations",
            Value::Arr(violations.iter().map(Value::str).collect()),
        ),
    ]
}

/// One workload's section of an untraced result file.
pub fn run_section(w: &Workload, o: &Outcome) -> Value {
    let mut pairs = sizes(w);
    pairs.push(("passes", Value::Num(o.passes as f64)));
    pairs.extend(checks(
        o.attempted,
        o.failed,
        &o.violations,
        &o.input_digest,
        &o.journal_digest,
    ));
    pairs.push((
        "alloc_ready",
        Value::obj(vec![
            ("samples", Value::Num(o.ready_samples as f64)),
            (
                "tail_percentile",
                o.ready_tail
                    .map_or(Value::Null, |(p, _)| Value::Num(p as f64)),
            ),
            (
                "tail_ms",
                o.ready_tail.map_or(Value::Null, |(_, v)| Value::Num(v)),
            ),
        ]),
    ));
    let metrics = END_TO_END
        .iter()
        .zip(&o.samples)
        .map(|(def, samples)| {
            let (q1, q3) = stats::quartiles(samples);
            Value::obj(vec![
                ("name", Value::str(def.name)),
                ("unit", Value::str(def.unit)),
                (
                    "better",
                    Value::str(if def.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    }),
                ),
                ("bound", Value::Num(def.bound)),
                ("median", Value::Num(stats::median(samples))),
                ("q1", Value::Num(q1)),
                ("q3", Value::Num(q3)),
                ("n", Value::Num(samples.len() as f64)),
                ("samples", Value::nums(samples)),
            ])
        })
        .collect();
    pairs.push(("metrics", Value::Arr(metrics)));
    Value::obj(pairs)
}

/// One workload's section of a traced result file.
pub fn trace_section(w: &Workload, p: &Probe) -> Value {
    let rows = |rows: &[crate::layers::Row]| {
        Value::Arr(
            rows.iter()
                .map(|r| {
                    Value::obj(vec![
                        ("name", Value::str(r.name.as_str())),
                        ("unit", Value::str(r.unit)),
                        ("value", Value::Num(r.value)),
                    ])
                })
                .collect(),
        )
    };
    let mut pairs = sizes(w);
    pairs.extend(checks(
        p.attempted,
        p.failed,
        &p.violations,
        &p.input_digest,
        &p.journal_digest,
    ));
    pairs.push(("rows", rows(&p.rows)));
    pairs.push(("extra_rows", rows(&p.extra)));
    pairs.push((
        "skipped",
        Value::Arr(
            p.skipped
                .iter()
                .map(|(name, reason)| {
                    Value::obj(vec![
                        ("name", Value::str(name.as_str())),
                        ("reason", Value::str(reason.as_str())),
                    ])
                })
                .collect(),
        ),
    ));
    pairs.push(("spans", Value::Num(p.spans as f64)));
    pairs.push((
        "chrome_trace",
        Value::str(p.chrome_trace.display().to_string()),
    ));
    Value::obj(pairs)
}

pub fn file(host: Value, seed: u64, seconds: u64, traced: bool, sections: Vec<Value>) -> Value {
    Value::obj(vec![
        ("schema", Value::str(SCHEMA)),
        ("mode", Value::str(if traced { "trace" } else { "run" })),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds as f64)),
        ("host", host),
        ("workloads", Value::Arr(sections)),
    ])
}

/// The one-line object the benchmark contract asks for.
pub fn contract_line(
    attempted: u64,
    failed: u64,
    correct: bool,
    metrics: Vec<(&str, &str, f64)>,
) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted.max(1) as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .into_iter()
                    .map(|(name, unit, value)| {
                        (
                            name.to_string(),
                            Value::obj(vec![
                                ("value", Value::Num(value)),
                                ("unit", Value::str(unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render()
}
