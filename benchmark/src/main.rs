//! The repo benchmark: five seeded workloads from a trace file through
//! the `cps` CLI to a journaled allocation, timed from outside, plus a
//! separate traced run for per-layer rows. See README.md.
//!
//! ```text
//! cps-benchmark run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! cps-benchmark trace   [--workload W] [--seed N] [--out FILE]
//! cps-benchmark compare A.json B.json
//! ```
//!
//! With `--workload` the last line of standard output is the one-line
//! JSON object of the benchmark contract (`BENCHMARK.json` runs
//! `… -- run --workload W --seed N --seconds S --trace T`).

mod compare;
mod json;
mod layers;
mod proc;
mod results;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: cps-benchmark run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       cps-benchmark trace   [--workload W] [--seed N] [--out FILE]
       cps-benchmark compare A.json B.json";

/// Where Chrome traces (and, by convention, result files) go.
pub fn results_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// `run_seconds` in `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 15;

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String], traced: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        traced,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} `{value}`"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.traced = number()? != 0,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn print_violations(name: &str, violations: &[String]) {
    for v in violations {
        eprintln!("cps-benchmark: {name}: CHECK FAILED: {v}");
    }
}

/// Runs the selected workloads. Failed output checks do not fail the
/// command: the result is still printed, with `correct: false`.
fn run(args: &RunArgs) -> Result<(), String> {
    let all = workloads::all();
    let selected: Vec<&workloads::Workload> = match &args.workload {
        None => all.iter().collect(),
        Some(name) => vec![all.iter().find(|w| w.name == name).ok_or_else(|| {
            let names: Vec<&str> = all.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (one of {})", names.join(", "))
        })?],
    };
    let cps = workloads::ensure_cps()?;
    let host = results::host(&cps);
    println!(
        "cps-benchmark: {} run, seed {}, {} s per workload, binary {}",
        if args.traced { "traced" } else { "untraced" },
        args.seed,
        args.seconds,
        cps.display()
    );

    let mut sections = Vec::new();
    let mut contract = String::new();
    for w in selected {
        println!("\n== {} ({} {} per pass) ==", w.name, w.items(), w.item);
        if args.traced {
            let p = layers::probe(w, args.seed)?;
            print_violations(w.name, &p.violations);
            println!("{:<44} {:>8} {:>16}  better", "layer row", "unit", "value");
            for (row, def) in p.rows.iter().zip(&layers::PER_LAYER) {
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                println!(
                    "{:<44} {:>8} {:>16.4}  {better}",
                    row.name, row.unit, row.value
                );
            }
            for row in &p.extra {
                println!(
                    "{:<44} {:>8} {:>16.4}  (this workload only)",
                    row.name, row.unit, row.value
                );
            }
            for (name, reason) in &p.skipped {
                println!("skipped {name}: {reason}");
            }
            println!(
                "{} spans -> {} (open in chrome://tracing or ui.perfetto.dev)",
                p.spans,
                p.chrome_trace.display()
            );
            let correct = p.violations.is_empty() && p.failed == 0;
            contract = results::contract_line(
                p.attempted,
                p.failed,
                correct,
                p.rows
                    .iter()
                    .map(|r| (r.name.as_str(), r.unit, r.value))
                    .collect(),
            );
            sections.push(results::trace_section(w, &p));
        } else {
            let o = workloads::run(w, args.seed, args.seconds)?;
            print_violations(w.name, &o.violations);
            println!(
                "{:<20} {:>6} {:>16} {:>16} {:>16} {:>4}",
                "metric", "unit", "median", "q1", "q3", "n"
            );
            let mut metrics = Vec::new();
            for (def, samples) in workloads::END_TO_END.iter().zip(&o.samples) {
                let median = stats::median(samples);
                let (q1, q3) = stats::quartiles(samples);
                println!(
                    "{:<20} {:>6} {:>16.4} {:>16.4} {:>16.4} {:>4}",
                    def.name,
                    def.unit,
                    median,
                    q1,
                    q3,
                    samples.len()
                );
                metrics.push((def.name, def.unit, median));
            }
            match o.ready_tail {
                Some((p, v)) => println!(
                    "alloc_ready tail: p{p} = {v:.4} ms over {} samples",
                    o.ready_samples
                ),
                None => println!(
                    "alloc_ready tail: {} samples support no percentile above the median",
                    o.ready_samples
                ),
            }
            println!(
                "failed_share {} / {}; input {} journal {}",
                o.failed, o.attempted, o.input_digest, o.journal_digest
            );
            let correct = o.violations.is_empty() && o.failed == 0;
            contract = results::contract_line(o.attempted, o.failed, correct, metrics);
            sections.push(results::run_section(w, &o));
        }
    }

    if let Some(path) = &args.out {
        let file = results::file(host, args.seed, args.seconds, args.traced, sections);
        std::fs::write(path, file.render_pretty())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\nresults -> {}", path.display());
    }
    if args.workload.is_some() {
        println!("{contract}");
    }
    Ok(())
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(format!("compare wants two result files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<json::Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut notes = Vec::new();
    let lines = compare::compare(&load(a)?, &load(b)?, &mut notes)?;
    println!(
        "{:<16} {:<20} {:>6} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A median", "B median", "change%", "bound%"
    );
    let mut clean = true;
    for l in &lines {
        println!(
            "{:<16} {:<20} {:>6} {:>16.4} {:>16.4} {:>+8.2} {:>6.1}  {}",
            l.workload,
            l.metric,
            l.unit,
            l.a_median,
            l.b_median,
            (l.b_median - l.a_median) / l.a_median * 100.0,
            l.bound * 100.0,
            l.verdict.name()
        );
        clean &= l.verdict != compare::Verdict::Regressed;
    }
    for note in &notes {
        println!("note: {note}");
    }
    let count = |v: compare::Verdict| lines.iter().filter(|l| l.verdict == v).count();
    println!(
        "{} regressed, {} unresolved, {} unchanged",
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
        count(compare::Verdict::Unchanged)
    );
    Ok(clean)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest, false)
            .and_then(|a| run(&a))
            .map(|()| true),
        Some((cmd, rest)) if cmd == "trace" => parse_run_args(rest, true)
            .and_then(|a| run(&a))
            .map(|()| true),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `compare` found a regression.
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("cps-benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; the harness's tables are
    /// what actually gets printed. Hold one to the other.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_reports() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let better = |higher: bool| json::Value::str(if higher { "higher" } else { "lower" });
        let end_to_end = json::Value::Arr(
            workloads::END_TO_END
                .iter()
                .map(|d| {
                    json::Value::obj(vec![
                        ("name", json::Value::str(d.name)),
                        ("unit", json::Value::str(d.unit)),
                        ("better", better(d.higher_is_better)),
                        ("bound", json::Value::Num(d.bound)),
                    ])
                })
                .collect(),
        );
        let per_layer = json::Value::Arr(
            layers::PER_LAYER
                .iter()
                .map(|d| {
                    json::Value::obj(vec![
                        ("name", json::Value::str(d.name)),
                        ("unit", json::Value::str(d.unit)),
                        ("better", better(d.higher_is_better)),
                    ])
                })
                .collect(),
        );
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(doc.get("end_to_end"), Some(&end_to_end));
        assert_eq!(doc.get("per_layer"), Some(&per_layer));
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k| w.get(k).and_then(json::Value::as_str).unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = workloads::all()
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, ours);
        assert!(doc
            .get("end_to_end")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .any(|m| m.get("name").and_then(json::Value::as_str) == Some("setup_s")));
    }

    #[test]
    fn run_flags_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload serve-solve --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_run_args(&argv, false).unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-solve"));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10, true));
        assert!(parse_run_args(&["--seed".to_string()], false).is_err());
        assert!(parse_run_args(&["--bogus".to_string(), "1".to_string()], false).is_err());
    }
}
