//! End-to-end tests of the `cps` command-line tool: generate → profile →
//! predict → optimize, exercising the real binary and the on-disk
//! formats.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cps(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn cps")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn full_workflow_gen_profile_predict_optimize() {
    let dir = tempdir("workflow");
    let s = stdout(&cps(
        &[
            "gen",
            "--workload",
            "loop:60",
            "--len",
            "30000",
            "--out",
            "a.trace",
            "--seed",
            "3",
        ],
        &dir,
    ));
    assert!(s.contains("60 distinct blocks"), "{s}");
    stdout(&cps(
        &[
            "gen",
            "--workload",
            "zipf:300:0.8",
            "--len",
            "30000",
            "--out",
            "b.trace",
        ],
        &dir,
    ));
    let s = stdout(&cps(
        &[
            "profile",
            "a.trace",
            "--out",
            "a.cpsp",
            "--max-blocks",
            "128",
            "--name",
            "loop60",
        ],
        &dir,
    ));
    assert!(s.contains("profiled `loop60`"), "{s}");
    stdout(&cps(
        &[
            "profile",
            "b.trace",
            "--out",
            "b.cpsp",
            "--max-blocks",
            "128",
        ],
        &dir,
    ));

    let s = stdout(&cps(&["show", "a.cpsp"], &dir));
    assert!(s.contains("loop60"), "{s}");
    assert!(s.contains("miss ratio"), "{s}");

    let s = stdout(&cps(
        &["predict", "a.cpsp", "b.cpsp", "--cache", "128"],
        &dir,
    ));
    assert!(s.contains("natural partition"), "{s}");
    assert!(s.contains("group miss ratio"), "{s}");

    let s = stdout(&cps(
        &["optimize", "a.cpsp", "b.cpsp", "--units", "128"],
        &dir,
    ));
    assert!(s.contains("optimal partition"), "{s}");
    // The loop's working set (60) must be covered by its allocation.
    let loop_line = s.lines().find(|l| l.starts_with("loop60")).expect("row");
    let units: usize = loop_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        units >= 60,
        "loop60 should get its working set, got {units}"
    );

    // Baseline and maxmin variants run too.
    stdout(&cps(
        &[
            "optimize",
            "a.cpsp",
            "b.cpsp",
            "--units",
            "128",
            "--baseline",
            "natural",
        ],
        &dir,
    ));
    stdout(&cps(
        &[
            "optimize",
            "a.cpsp",
            "b.cpsp",
            "--units",
            "64",
            "--bpu",
            "2",
            "--objective",
            "maxmin",
        ],
        &dir,
    ));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_not_panicked() {
    let dir = tempdir("errors");
    // Unknown command.
    let out = cps(&["frobnicate"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing file.
    let out = cps(&["show", "missing.cpsp"], &dir);
    assert!(!out.status.success());
    // Bad workload spec.
    let out = cps(
        &[
            "gen",
            "--workload",
            "nonsense:1",
            "--len",
            "10",
            "--out",
            "x",
        ],
        &dir,
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unrecognized workload"));
    // A table region too large to allocate, or a non-finite Zipf
    // exponent: one `cps: bad workload` line and exit 1, never an abort.
    for w in [
        "zipf:100000000000:1",
        "chase:100000000000",
        "zipf:64:NaN",
        "zipf:10:inf",
        "zipf:10:-inf",
    ] {
        let mixed = format!("{w},loop:4");
        let runs: [&[&str]; 2] = [
            &["gen", "--workload", w, "--len", "10", "--out", "x"],
            &[
                "trace",
                "gen",
                "--workloads",
                &mixed,
                "--len",
                "10",
                "--out",
                "x",
            ],
        ];
        for args in runs {
            let out = cps(args, &dir);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(
                err.starts_with("cps: bad workload") && err.lines().count() == 1,
                "{args:?}: {err}"
            );
        }
    }
    // Garbage profile file.
    std::fs::write(dir.join("junk.cpsp"), b"not a profile").unwrap();
    let out = cps(&["predict", "junk.cpsp", "--cache", "64"], &dir);
    assert!(!out.status.success());
    // Cache bigger than the profile's sampled range.
    stdout(&cps(
        &[
            "gen",
            "--workload",
            "loop:10",
            "--len",
            "1000",
            "--out",
            "t.trace",
        ],
        &dir,
    ));
    stdout(&cps(
        &[
            "profile",
            "t.trace",
            "--out",
            "t.cpsp",
            "--max-blocks",
            "32",
        ],
        &dir,
    ));
    let out = cps(&["optimize", "t.cpsp", "--units", "64"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("re-profile"));
    // Degenerate sizes fail at parse with one `cps:` line and exit 1,
    // never a panic (exit 101).
    let degenerate: [&[&str]; 9] = [
        &["stall", "t.cpsp", "t.cpsp", "--cache", "0"],
        &["optimize", "t.cpsp", "t.cpsp", "--units", "0"],
        &["phase-plan", "t.trace", "--units", "0"],
        &["optimize", "t.cpsp", "--units", "4", "--bpu", "0"],
        &["phase-plan", "t.trace", "--units", "4", "--segments", "0"],
        &["show", "t.cpsp", "--points", "0"],
        &[
            "profile", "t.trace", "--out", "u.cpsp", "--burst", "0", "--ratio", "4",
        ],
        &[
            "profile", "t.trace", "--out", "u.cpsp", "--burst", "100", "--ratio", "0",
        ],
        &[
            "profile",
            "t.trace",
            "--out",
            "u.cpsp",
            "--max-blocks",
            "18446744073709551615",
        ],
    ];
    for args in degenerate {
        let out = cps(args, &dir);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("cps: bad --") && err.lines().count() == 1,
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_profiling_and_stall_advice() {
    let dir = tempdir("sampled");
    stdout(&cps(
        &[
            "gen",
            "--workload",
            "loop:60",
            "--len",
            "40000",
            "--out",
            "a.trace",
            "--seed",
            "1",
        ],
        &dir,
    ));
    stdout(&cps(
        &[
            "gen",
            "--workload",
            "loop:60",
            "--len",
            "40000",
            "--out",
            "b.trace",
            "--seed",
            "2",
        ],
        &dir,
    ));
    // Burst-sampled profile still sees the 60-block working set.
    let s = stdout(&cps(
        &[
            "profile",
            "a.trace",
            "--out",
            "a.cpsp",
            "--max-blocks",
            "128",
            "--burst",
            "2000",
            "--ratio",
            "5",
            "--name",
            "A",
        ],
        &dir,
    ));
    assert!(s.contains("60 distinct blocks"), "{s}");
    stdout(&cps(
        &[
            "profile",
            "b.trace",
            "--out",
            "b.cpsp",
            "--max-blocks",
            "128",
            "--name",
            "B",
        ],
        &dir,
    ));
    // Two 60-block loops in 100 blocks: the advisor must serialize.
    let s = stdout(&cps(&["stall", "a.cpsp", "b.cpsp", "--cache", "100"], &dir));
    assert!(s.contains("STALL"), "{s}");
    assert!(s.contains("; then "), "{s}");
    // In 200 blocks they co-run happily.
    let s = stdout(&cps(&["stall", "a.cpsp", "b.cpsp", "--cache", "200"], &dir));
    assert!(s.contains("co-run freely"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase_plan_tracks_alternating_working_sets() {
    let dir = tempdir("phaseplan");
    // Build two anti-phase traces by concatenating generated phases.
    let gen = |ws: u64, seed: u64| {
        stdout(&cps(
            &[
                "gen",
                "--workload",
                &format!("loop:{ws}"),
                "--len",
                "8000",
                "--out",
                "tmp.trace",
                "--seed",
                &seed.to_string(),
            ],
            &dir,
        ));
        std::fs::read_to_string(dir.join("tmp.trace")).unwrap()
    };
    let strip = |s: String| {
        s.lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let big = strip(gen(100, 1));
    let small = strip(gen(4, 2));
    std::fs::write(dir.join("a.trace"), format!("{big}\n{small}\n")).unwrap();
    std::fs::write(dir.join("b.trace"), format!("{small}\n{big}\n")).unwrap();
    let s = stdout(&cps(
        &[
            "phase-plan",
            "a.trace",
            "b.trace",
            "--units",
            "120",
            "--segments",
            "2",
        ],
        &dir,
    ));
    assert!(s.contains("repartitionings"), "{s}");
    // Segment 0: program a runs the 100-loop and must get >= 100 units.
    let seg0: Vec<usize> = s
        .lines()
        .find(|l| l.starts_with("0 "))
        .expect("segment 0 row")
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap())
        .collect();
    assert!(seg0[0] >= 100, "segment 0 gives a its working set: {s}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_online_sharded_reports_speedup_and_stays_deterministic() {
    let dir = tempdir("sharded");
    let s = stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            "loop:40,zipf:200:0.8",
            "--units",
            "64",
            "--len",
            "20000",
            "--epoch",
            "5000",
            "--shards",
            "3",
        ],
        &dir,
    ));
    assert!(s.contains("cumulative miss ratio"), "{s}");
    // The sharded section appears, with both rows and the identity check.
    assert!(s.contains("allocations identical"), "{s}");
    assert!(s.contains("3-shard"), "{s}");
    assert!(s.contains("speedup"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One shard *is* the inline path: `--shards 1` must journal the very
/// run the command produces without `--shards`, byte for byte once the
/// wall-clock fields are zeroed.
#[test]
fn replay_online_one_shard_journals_the_unsharded_run() {
    let dir = tempdir("one-shard");
    let base = [
        "replay-online",
        "--workloads",
        "loop:40,zipf:200:0.8",
        "--units",
        "64",
        "--len",
        "12000",
        "--epoch",
        "4000",
    ];
    for (extra, journal) in [
        (&[][..], "plain.jsonl"),
        (&["--shards", "1"][..], "one.jsonl"),
    ] {
        let args: Vec<&str> = base
            .iter()
            .chain(extra)
            .chain(&["--journal", journal])
            .copied()
            .collect();
        let s = stdout(&cps(&args, &dir));
        assert!(s.contains("journal: 3 epochs (single engine)"), "{s}");
        let canonical = format!("{journal}.canonical");
        stdout(&cps(&["inspect", journal, "--canonical", &canonical], &dir));
    }
    let plain = std::fs::read(dir.join("plain.jsonl.canonical")).unwrap();
    let one = std::fs::read(dir.join("one.jsonl.canonical")).unwrap();
    assert!(!plain.is_empty());
    assert_eq!(plain, one, "--shards 1 must be the unsharded run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_online_rejects_degenerate_knobs_with_friendly_errors() {
    let dir = tempdir("degenerate");
    let base = [
        "replay-online",
        "--workloads",
        "loop:40,zipf:200:0.8",
        "--units",
        "32",
    ];
    let degenerate: &[(&[&str], &str)] = &[
        (&["--shards", "0"], "--shards"),
        (&["--epoch", "0"], "--epoch"),
        (&["--units", "0"], "--units"),
        (&["--len", "0"], "--len"),
        // Retired with queued ingest: must fail, not run buffered.
        (
            &["--shards", "2", "--ingest", "queued"],
            "cps: unknown flag --ingest\n",
        ),
        (
            &["--shards", "2", "--queue-cap", "64"],
            "cps: unknown flag --queue-cap\n",
        ),
        // A typo of --shards must not run unsharded without a word.
        (&["--shard", "2"], "cps: unknown flag --shard\n"),
    ];
    for (extra, needle) in degenerate {
        let args: Vec<&str> = base.iter().chain(extra.iter()).copied().collect();
        let out = cps(&args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{extra:?} should fail:\n{stderr}");
        assert!(
            stderr.contains(needle),
            "{extra:?} should report `{needle}` through the CLI error path:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{extra:?} must not panic:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability round trip: `replay-online --journal` writes a
/// journal that `cps inspect` parses and validates, and whose totals
/// match an in-process engine run over the identical (seeded,
/// deterministic) stream. The metrics snapshot agrees too.
#[test]
fn replay_online_journal_round_trips_through_inspect() {
    use cache_partition_sharing::prelude::*;

    let dir = tempdir("journal");
    let s = stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            "loop:40,zipf:200:0.8",
            "--units",
            "64",
            "--len",
            "20000",
            "--epoch",
            "5000",
            "--seed",
            "7",
            "--shards",
            "2",
            "--journal",
            "run.jsonl",
            "--metrics-out",
            "metrics.prom",
        ],
        &dir,
    ));
    assert!(s.contains("journal: 4 epochs (sharded engine)"), "{s}");
    assert!(s.contains("metrics:"), "{s}");

    // `cps inspect` accepts it and prints every section.
    let s = stdout(&cps(&["inspect", "run.jsonl"], &dir));
    assert!(s.contains("journal OK: sharded engine"), "{s}");
    assert!(s.contains("stage time breakdown"), "{s}");
    assert!(s.contains("allocation churn"), "{s}");
    assert!(s.contains("tenant miss-ratio trajectories"), "{s}");

    // Parse the journal in-process and replay the identical stream
    // through the engine: totals and trajectory must match exactly.
    // The comparator is the same 2-shard engine the journal describes
    // (realized hit counts are shard-layout-dependent, so a one-shard
    // run would not match).
    let text = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
    let journal = Journal::parse(&text).expect("journal validates");
    let traces = [
        WorkloadSpec::SequentialLoop { working_set: 40 }.generate(20_000, 8),
        WorkloadSpec::Zipfian {
            region: 200,
            alpha: 0.8,
        }
        .generate(20_000, 9),
    ];
    let refs: Vec<&Trace> = traces.iter().collect();
    let co = interleave_proportional(&refs, &[1.0, 1.0], 20_000);
    let cfg = EngineConfig::new(CacheConfig::new(64, 1), 5_000)
        .policy(Policy::Optimal)
        .objective(Objective::MissRatioSum)
        .decay(0.5)
        .hysteresis(1);
    let mut engine = Engine::new(cfg, 2, 2);
    engine.run(co.tenant_accesses());
    let report = engine.finish();

    assert_eq!(journal.header.tenants, 2);
    assert_eq!(journal.header.units, 64);
    assert_eq!(journal.header.shards, 2);
    assert_eq!(journal.header, report.header);
    assert_eq!(journal.epochs.len(), report.epochs.len());
    assert_eq!(journal.summary.accesses, report.summary.accesses);
    assert_eq!(journal.summary.misses, report.summary.misses);
    assert_eq!(journal.summary.repartitions, report.summary.repartitions);
    for (je, re) in journal.epochs.iter().zip(&report.epochs) {
        assert_eq!(je.allocation, re.allocation, "epoch {}", re.epoch);
        assert_eq!(je.accesses, re.accesses, "epoch {}", re.epoch);
        assert_eq!(je.misses, re.misses, "epoch {}", re.epoch);
    }

    // The Prometheus snapshot counted the same stream.
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
    assert!(
        prom.contains(&format!(
            "cps_engine_accesses_total {}",
            journal.summary.accesses
        )),
        "{prom}"
    );
    assert!(
        prom.contains("cps_engine_stage_solve_nanos_total"),
        "{prom}"
    );
    // The solve stage reports how much of the dense fold the DP kernel
    // actually visited: something, and never more than all of it.
    let counter = |name: &str| -> u64 {
        let line = prom.lines().find_map(|l| l.strip_prefix(name));
        line.and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name} missing:\n{prom}"))
    };
    let visited = counter("cps_engine_dp_cells_visited_total ");
    let dense = counter("cps_engine_dp_cells_dense_total ");
    assert!(0 < visited && visited <= dense, "{visited} of {dense}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Schema drift is a hard `cps inspect` failure, not a warning: a
/// truncated journal, tampered totals, and an unknown version must all
/// exit nonzero.
#[test]
fn inspect_rejects_truncated_tampered_and_future_journals() {
    let dir = tempdir("inspect-drift");
    stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            "loop:40,zipf:200:0.8",
            "--units",
            "32",
            "--len",
            "8000",
            "--epoch",
            "4000",
            "--journal",
            "good.jsonl",
        ],
        &dir,
    ));
    stdout(&cps(&["inspect", "good.jsonl"], &dir));
    let good = std::fs::read_to_string(dir.join("good.jsonl")).unwrap();
    let lines: Vec<&str> = good.lines().collect();

    // Truncated: summary line missing.
    let truncated = lines[..lines.len() - 1].join("\n");
    std::fs::write(dir.join("truncated.jsonl"), truncated).unwrap();
    let out = cps(&["inspect", "truncated.jsonl"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("summary"));

    // Tampered: a miss count changed, so the totals no longer add up.
    let tampered = good.replacen("\"misses\":[", "\"misses\":[1000000,", 1);
    assert_ne!(tampered, good, "tamper must hit an epoch line");
    std::fs::write(dir.join("tampered.jsonl"), tampered).unwrap();
    let out = cps(&["inspect", "tampered.jsonl"], &dir);
    assert!(!out.status.success());

    // Future version: readers must refuse rather than guess.
    let future = good.replacen("\"v\":3", "\"v\":4", 1);
    assert_ne!(future, good, "version bump must hit the header");
    std::fs::write(dir.join("future.jsonl"), future).unwrap();
    let out = cps(&["inspect", "future.jsonl"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("version"));

    // Old schema: a version-1 journal (pre-objective, no epoch
    // `objective` field) is refused with a clear pointer, not guessed
    // at. Strip the newer fields so the line is a faithful v1 relic.
    let old = good
        .replace("\"v\":3", "\"v\":1")
        .replace(",\"objective\":\"miss-ratio\"", "");
    assert_ne!(old, good);
    std::fs::write(dir.join("old.jsonl"), old).unwrap();
    let out = cps(&["inspect", "old.jsonl"], &dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("journal version 1") && stderr.contains("speaks 3"),
        "v1 journals need a clear upgrade message:\n{stderr}"
    );

    // Garbage is a parse error, not a panic.
    std::fs::write(dir.join("junk.jsonl"), "not json at all\n").unwrap();
    let out = cps(&["inspect", "junk.jsonl"], &dir);
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    // Hostile nesting is a depth error, not a stack overflow.
    std::fs::write(dir.join("deep.jsonl"), "[".repeat(2_000_000)).unwrap();
    let out = cps(&["inspect", "deep.jsonl"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("nested deeper than"), "{stderr}");

    // Totals that only add up modulo 2^64 are refused, not wrapped (or
    // a panic in a debug build): an epoch-0 access count of u64::MAX
    // with the summary holding the wrapped total, and an allocation
    // that "partitions" the cache only after wrapping.
    let journal = cache_partition_sharing::obs::Journal::parse(&good).unwrap();
    let e0 = &journal.epochs[0];
    let list = |v: Vec<String>| v.join(",");
    let accesses = list(e0.accesses.iter().map(u64::to_string).collect());
    // Epoch 0 then sums to u64::MAX + 1, which wraps to 0.
    let wrapped = journal.summary.accesses - e0.accesses.iter().sum::<u64>();
    let epochs = journal.summary.epochs;
    let summary = |total: u64| format!("\"epochs\":{epochs},\"accesses\":{total},");
    let overflow = good
        .replacen(
            &format!("\"accesses\":[{accesses}]"),
            "\"accesses\":[18446744073709551615,1]",
            1,
        )
        .replace(&summary(journal.summary.accesses), &summary(wrapped));
    let alloc = list(e0.allocation.iter().map(usize::to_string).collect());
    let wrapped_alloc = good.replacen(
        &format!("\"alloc\":[{alloc}]"),
        "\"alloc\":[18446744073709551615,33]",
        1,
    );
    // A tournament header whose block count is past usize.
    let huge_cache = "{\"v\":3,\"kind\":\"tournament\",\"programs\":3,\"group_size\":2,\
                      \"groups\":3,\"units\":18446744073709551615,\"bpu\":2,\
                      \"objectives\":[\"miss-ratio\"]}\n\
                      {\"v\":3,\"kind\":\"table\",\"objective\":\"miss-ratio\",\
                      \"versus\":\"equal\",\"mean_gap\":1.5,\"median_gap\":1,\"max_gap\":3,\
                      \"improved_10pct\":0.5,\"improved_20pct\":0}\n";
    for (name, text, needle) in [
        (
            "overflow.jsonl",
            overflow,
            "epoch 0: the run's `accesses` total overflows 64 bits",
        ),
        (
            "wrapped-alloc.jsonl",
            wrapped_alloc,
            "does not partition 32 units",
        ),
        (
            "huge-cache.jsonl",
            huge_cache.to_string(),
            "overflows its block count",
        ),
    ] {
        assert_ne!(text, good, "{name}: the edit must land");
        std::fs::write(dir.join(name), text).unwrap();
        let out = cps(&["inspect", name], &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
        assert!(stderr.contains(needle), "{name}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Kills the daemon if a test fails before it shuts down cleanly.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The serving loop end to end, against a real daemon on a real
/// ephemeral port: `cps bench-net` streams the standard 4-tenant mix
/// to `cps serve`, verifies report identity itself, and the journals —
/// the one the daemon writes, the one the client receives over the
/// wire, and the one `cps replay-online` writes for the same
/// trace/seed/config — all describe the identical run.
#[test]
fn serve_and_bench_net_round_trip_report_identically() {
    use cache_partition_sharing::prelude::*;

    let dir = tempdir("serve");
    let mut child = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_cps"))
            .args([
                "serve",
                "--tenants",
                "4",
                "--units",
                "32",
                "--bpu",
                "4",
                "--epoch",
                "2000",
                "--port",
                "auto",
                "--port-file",
                "port.txt",
                "--journal",
                "served.jsonl",
            ])
            .current_dir(&dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn cps serve"),
    );

    // The daemon publishes its bound address once the socket is live.
    let addr = {
        let path = dir.join("port.txt");
        let mut found = None;
        for _ in 0..200 {
            match std::fs::read_to_string(&path) {
                Ok(text) if text.trim().contains(':') => {
                    found = Some(text.trim().to_string());
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(50)),
            }
        }
        found.expect("cps serve never wrote --port-file")
    };
    let port = addr.rsplit(':').next().unwrap();

    let workloads = "loop:24,zipf:150:0.8,walk:300:30:500,uniform:400";
    let s = stdout(&cps(
        &[
            "bench-net",
            "--workloads",
            workloads,
            "--rates",
            "1.0,2.0,1.0,1.5",
            "--len",
            "20000",
            "--seed",
            "42",
            "--port",
            port,
            "--journal-out",
            "bench.jsonl",
        ],
        &dir,
    ));
    assert!(s.contains("report identity: OK"), "{s}");

    // SHUTDOWN tears the daemon down; it must exit cleanly on its own.
    let status = {
        let mut status = None;
        for _ in 0..200 {
            if let Some(st) = child.0.try_wait().expect("try_wait") {
                status = Some(st);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        status.expect("cps serve did not exit after SHUTDOWN")
    };
    assert!(status.success(), "cps serve exited nonzero");

    // The daemon's --journal file and the client's wire copy are the
    // same bytes.
    let served = std::fs::read_to_string(dir.join("served.jsonl")).unwrap();
    let benched = std::fs::read_to_string(dir.join("bench.jsonl")).unwrap();
    assert_eq!(served, benched, "wire journal differs from --journal file");

    // `cps inspect` cross-validates the served journal unchanged.
    let s = stdout(&cps(&["inspect", "served.jsonl"], &dir));
    assert!(s.contains("journal OK: single engine"), "{s}");
    assert!(s.contains("20000 accesses"), "{s}");

    // And the served run is report-identical to `cps replay-online` on
    // the same trace, seed, and engine config.
    stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            workloads,
            "--rates",
            "1.0,2.0,1.0,1.5",
            "--len",
            "20000",
            "--seed",
            "42",
            "--units",
            "32",
            "--bpu",
            "4",
            "--epoch",
            "2000",
            "--journal",
            "replayed.jsonl",
        ],
        &dir,
    ));
    let replayed = std::fs::read_to_string(dir.join("replayed.jsonl")).unwrap();
    assert_eq!(
        Journal::parse(&served).unwrap().canonical(),
        Journal::parse(&replayed).unwrap().canonical(),
        "served run must be report-identical to replay-online"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_and_bench_net_reject_degenerate_flags_with_friendly_errors() {
    let dir = tempdir("serve-flags");
    let cases: &[(&[&str], &str)] = &[
        (
            &["serve", "--tenants", "0", "--units", "32", "--port", "auto"],
            "--tenants",
        ),
        (
            &["serve", "--tenants", "2", "--units", "0", "--port", "auto"],
            "--units",
        ),
        (
            &["serve", "--tenants", "2", "--units", "32", "--port", "0"],
            "auto",
        ),
        (
            &["serve", "--tenants", "2", "--units", "32", "--port", "nope"],
            "--port",
        ),
        (&["serve", "--tenants", "2", "--units", "32"], "--port"),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "32",
                "--port",
                "auto",
                "--max-conns",
                "0",
            ],
            "--max-conns",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "32",
                "--port",
                "auto",
                "--idle-timeout",
                "0",
            ],
            "--idle-timeout",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "32",
                "--port",
                "auto",
                "--proto",
                "3",
            ],
            "cps: unknown flag --proto\n",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "32",
                "--port",
                "auto",
                "--shards",
                "0",
            ],
            "--shards",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "32",
                "--port",
                "auto",
                "--shards",
                "2",
                "--ingest",
                "queued",
            ],
            "unknown flag --ingest",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "32",
                "--port",
                "auto",
                "--queue-cap",
                "64",
            ],
            "unknown flag --queue-cap",
        ),
        (
            &[
                "bench-net",
                "--workloads",
                "loop:4,loop:8",
                "--port",
                "1",
                "--batch",
                "0",
            ],
            "--batch",
        ),
        (
            &[
                "bench-net",
                "--workloads",
                "loop:4,loop:8",
                "--port",
                "1",
                "--len",
                "0",
            ],
            "--len",
        ),
        (&["bench-net", "--workloads", "loop:4,loop:8"], "--port"),
        (
            &[
                "bench-net",
                "--workloads",
                "loop:4,loop:8",
                "--port",
                "1",
                "--rates",
                "1.0",
            ],
            "rates",
        ),
    ];
    for (args, needle) in cases {
        let out = cps(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} should fail:\n{stderr}");
        assert!(
            stderr.contains("cps:"),
            "{args:?} should report through the CLI error path:\n{stderr}"
        );
        assert!(
            stderr.contains(needle),
            "{args:?} should mention `{needle}`:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{args:?} must not panic:\n{stderr}"
        );
    }
    // `--help` / `-h` after a subcommand is a request, not an unknown
    // flag: the usage text on stdout, exit 0, whatever else was typed.
    let help: &[&[&str]] = &[
        &["serve", "--help"],
        &["tournament", "-h"],
        &["serve", "--tenants", "2", "--help"],
        &["trace", "stat", "--help"],
    ];
    for args in help {
        let out = cps(args, &dir);
        assert!(stdout(&out).contains("USAGE:"), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The stdio satellites: `--metrics-out -` streams the snapshot to
/// stdout, and `cps inspect -` consumes a journal from stdin.
#[test]
fn metrics_stream_to_stdout_and_inspect_reads_stdin() {
    let dir = tempdir("stdio");
    let s = stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            "loop:40,zipf:200:0.8",
            "--units",
            "32",
            "--len",
            "8000",
            "--epoch",
            "4000",
            "--journal",
            "run.jsonl",
            "--metrics-out",
            "-",
        ],
        &dir,
    ));
    assert!(
        s.contains("\"metric\":\"cps_engine_accesses_total\""),
        "stdout snapshots render as JSONL: {s}"
    );

    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(["inspect", "-"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cps inspect -");
    let journal = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(journal.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let s = stdout(&out);
    assert!(s.contains("journal OK"), "{s}");
    assert!(s.contains("stage time breakdown"), "{s}");

    // Garbage on stdin is a parse error naming <stdin>, not a panic.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(["inspect", "-"])
        .current_dir(&dir)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn cps inspect -");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"not a journal\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("<stdin>"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_parser_accepts_hex_and_comments() {
    let dir = tempdir("parser");
    std::fs::write(dir.join("hex.trace"), "# comment\n0x10\n16\n\n0xFF\n255\n").unwrap();
    let s = stdout(&cps(
        &[
            "profile",
            "hex.trace",
            "--out",
            "hex.cpsp",
            "--max-blocks",
            "16",
        ],
        &dir,
    ));
    // 0x10 == 16 and 0xFF == 255: only 2 distinct blocks.
    assert!(s.contains("2 distinct blocks"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The cluster loop end to end in local mode: a 2-node coordinator run
/// whose journal `cps inspect` validates unchanged under the flat
/// schema.
#[test]
fn cluster_local_mode_runs_and_inspects() {
    let dir = tempdir("cluster-local");
    let s = stdout(&cps(
        &[
            "cluster",
            "--workloads",
            "loop:24,zipf:150:0.8,walk:300:30:500,uniform:400",
            "--units",
            "32",
            "--bpu",
            "4",
            "--len",
            "30000",
            "--epoch",
            "3000",
            "--nodes",
            "2",
            "--node-capacity",
            "32",
            "--rates",
            "1.0,2.0,1.0,1.5",
            "--journal",
            "cluster.jsonl",
            "--metrics-out",
            "cluster-metrics.txt",
        ],
        &dir,
    ));
    assert!(s.contains("local (2 nodes)"), "{s}");
    assert!(s.contains("10 epochs"), "{s}");

    let s = stdout(&cps(&["inspect", "cluster.jsonl"], &dir));
    assert!(s.contains("journal OK: cluster engine"), "{s}");
    assert!(s.contains("2 shard(s)"), "one journal shard per node: {s}");

    let metrics = std::fs::read_to_string(dir.join("cluster-metrics.txt")).unwrap();
    assert!(
        metrics.contains("cps_cluster_epochs_total"),
        "cluster counters exported: {metrics}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Remote mode against live daemons: two `cps serve` processes on
/// ephemeral ports, externally clocked by `cps cluster --connect`.
/// Both daemons must exit cleanly after the coordinator's shutdown.
#[test]
fn cluster_remote_mode_drives_live_daemons() {
    let dir = tempdir("cluster-remote");
    let spawn_node = |port_file: &str| {
        ChildGuard(
            Command::new(env!("CARGO_BIN_EXE_cps"))
                .args([
                    "serve",
                    "--tenants",
                    "2",
                    "--units",
                    "16",
                    "--epoch",
                    "1000000000",
                    "--port",
                    "auto",
                    "--port-file",
                    port_file,
                ])
                .current_dir(&dir)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn cps serve"),
        )
    };
    let mut node0 = spawn_node("n0.txt");
    let mut node1 = spawn_node("n1.txt");
    let read_addr = |name: &str| {
        let path = dir.join(name);
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if text.trim().contains(':') {
                    return text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("daemon never wrote {name}");
    };
    let (a0, a1) = (read_addr("n0.txt"), read_addr("n1.txt"));

    let s = stdout(&cps(
        &[
            "cluster",
            "--workloads",
            "loop:6,uniform:48",
            "--units",
            "16",
            "--len",
            "10000",
            "--epoch",
            "2000",
            "--connect",
            &format!("{a0},{a1}"),
            "--journal",
            "remote.jsonl",
        ],
        &dir,
    ));
    assert!(s.contains("remote ("), "{s}");
    assert!(s.contains("5 epochs"), "{s}");

    let s = stdout(&cps(&["inspect", "remote.jsonl"], &dir));
    assert!(s.contains("journal OK: cluster engine"), "{s}");

    // The coordinator's finish shuts both daemons down.
    for (name, child) in [("node0", &mut node0), ("node1", &mut node1)] {
        let mut status = None;
        for _ in 0..200 {
            if let Some(st) = child.0.try_wait().expect("try_wait") {
                status = Some(st);
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        let status = status.unwrap_or_else(|| panic!("{name} did not exit after shutdown"));
        assert!(status.success(), "{name} exited nonzero");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate cluster flags die with friendly one-line errors, never a
/// panic or a hung daemon connection.
#[test]
fn cluster_rejects_degenerate_flags_with_friendly_errors() {
    let dir = tempdir("cluster-flags");
    let fails = |args: &[&str], needle: &str| {
        let out = cps(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    };
    fn with(extra: &[&'static str]) -> Vec<&'static str> {
        let mut v = vec![
            "cluster",
            "--workloads",
            "loop:24,zipf:150:0.8",
            "--units",
            "32",
        ];
        v.extend_from_slice(extra);
        v
    }
    fails(&with(&["--nodes", "0"]), "--nodes must be at least 1");
    fails(
        &with(&["--nodes", "3"]),
        "empty nodes can never receive budget",
    );
    fails(
        &with(&["--nodes", "2", "--node-capacity", "8"]),
        "cannot host a 32-unit cluster",
    );
    fails(
        &with(&["--nodes", "2", "--node-capacity", "1"]),
        "below the 2-tenant count",
    );
    fails(
        &with(&["--connect", "127.0.0.1:7001,127.0.0.1:7001"]),
        "twice",
    );
    fails(
        &with(&["--connect", "127.0.0.1:7001", "--nodes", "2"]),
        "--nodes only applies to local mode",
    );
    fails(
        &with(&["--connect", "127.0.0.1:7001", "--node-capacity", "8"]),
        "--node-capacity only applies to local mode",
    );
    fails(
        &with(&["--migrate-threshold", "nope"]),
        "bad --migrate-threshold",
    );
    // LPT is the one initial placement; the flag is retired.
    fails(
        &with(&["--placement", "greedy"]),
        "unknown flag --placement",
    );
    fails(
        &["cluster", "--workloads", "loop:24", "--units", "32"],
        "at least two comma-separated workloads",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The tournament round trip: `cps tournament --journal` writes a
/// tournament journal that `cps inspect` recognizes by its first-line
/// kind and renders back as the same comparison table.
#[test]
fn tournament_journals_round_trip_through_inspect() {
    let dir = tempdir("tournament");
    let args = [
        "tournament",
        "--objectives",
        "miss-ratio,utility,value-weighted:1,2,4",
        "--programs",
        "5",
        "--group-size",
        "3",
        "--len",
        "6000",
        "--units",
        "16",
        "--bpu",
        "8",
        "--journal",
        "t.jsonl",
    ];
    let table = stdout(&cps(&args, &dir));
    // One row per objective × non-optimal scheme, every objective named.
    for objective in ["miss-ratio", "utility:0.5", "value-weighted:1,2,4"] {
        assert!(table.contains(objective), "{objective} missing:\n{table}");
    }
    for versus in [
        "Equal",
        "Natural",
        "STTW",
        "Equal baseline",
        "Natural baseline",
    ] {
        assert!(table.contains(versus), "{versus} missing:\n{table}");
    }
    assert!(
        table.contains("10 per objective"),
        "C(5,3) = 10 groups:\n{table}"
    );

    let inspected = stdout(&cps(&["inspect", "t.jsonl"], &dir));
    assert!(inspected.contains("tournament journal OK"), "{inspected}");
    // The rendered table is byte-identical to the producer's.
    assert_eq!(
        inspected.trim_start_matches("tournament journal OK\n"),
        table,
        "inspect must render the producer's table"
    );

    // The sweep behind the table fans out over the available cores; a
    // second run must still write the same journal byte for byte.
    let good = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
    let again = tempdir("tournament-again");
    assert_eq!(stdout(&cps(&args, &again)), table);
    assert_eq!(
        std::fs::read_to_string(again.join("t.jsonl")).unwrap(),
        good,
        "two tournament runs must journal identically"
    );
    std::fs::remove_dir_all(&again).ok();

    // A truncated journal (an announced objective with no rows) fails
    // validation, and version drift is refused like the epoch journal.
    let lines: Vec<&str> = good.lines().collect();
    std::fs::write(dir.join("cut.jsonl"), lines[..6].join("\n")).unwrap();
    let out = cps(&["inspect", "cut.jsonl"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no rows"));
    std::fs::write(dir.join("v1.jsonl"), good.replace("\"v\":3", "\"v\":1")).unwrap();
    let out = cps(&["inspect", "v1.jsonl"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("journal version 1"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate tournament and objective flags die with friendly
/// one-line errors: unknown objectives, bad weights, weight counts
/// that don't match the group, impossible group sizes.
#[test]
fn tournament_and_objective_flags_reject_degenerate_values() {
    let dir = tempdir("tournament-flags");
    let fails = |args: &[&str], needle: &str| {
        let out = cps(args, &dir);
        assert!(!out.status.success(), "{args:?} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    };
    fn with(extra: &[&'static str]) -> Vec<&'static str> {
        let mut v = vec!["tournament"];
        v.extend_from_slice(extra);
        v
    }
    fails(
        &with(&["--objectives", "latency"]),
        "bad --objectives: unknown objective",
    );
    fails(&with(&["--objectives", "utility:2.0"]), "bad --objectives");
    fails(
        &with(&["--objectives", "value-weighted:1,-2,3,4"]),
        "bad --objectives",
    );
    // Three weights for four-tenant groups: counted and said plainly.
    fails(
        &with(&["--objectives", "value-weighted:1,2,3"]),
        "3 weights",
    );
    fails(
        &with(&["--objectives", "miss-ratio,miss-ratio-sum"]),
        "listed twice",
    );
    fails(&with(&["--objectives", "miss-ratio,"]), "empty objective");
    fails(&with(&["--objectives", "2,miss-ratio"]), "stray number");
    fails(&with(&["--group-size", "0"]), "bad --group-size");
    fails(
        &with(&["--group-size", "7", "--programs", "5"]),
        "bad --group-size",
    );
    fails(&with(&["--programs", "9999"]), "bad --programs");
    fails(&with(&["--units", "0"]), "at least one block");
    // Same refusal, same words as replay-online / bench-net / cluster.
    fails(&with(&["--len", "0"]), "cps: --len must be at least 1\n");

    // `--objective` on the single-run commands speaks the same grammar
    // and phrases failures as flag errors too.
    fails(
        &[
            "replay-online",
            "--workloads",
            "loop:24,zipf:150:0.8",
            "--units",
            "16",
            "--objective",
            "latency",
        ],
        "bad --objective: unknown objective",
    );
    fails(
        &[
            "replay-online",
            "--workloads",
            "loop:24,zipf:150:0.8",
            "--units",
            "16",
            "--objective",
            "value-weighted:1,2,3",
        ],
        "3 weights",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The live telemetry plane, end to end against a real daemon:
/// `cps top --once` snapshots via SUBSCRIBE, `cps bench-net` rides an
/// observer and an HTTP scraper along the run without breaking report
/// identity, and the finished journal exports a Chrome trace.
#[test]
fn live_telemetry_smoke_top_observe_scrape_and_chrome_export() {
    let dir = tempdir("telemetry");
    let mut child = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_cps"))
            .args([
                "serve",
                "--tenants",
                "2",
                "--units",
                "16",
                "--epoch",
                "2000",
                "--port",
                "auto",
                "--port-file",
                "port.txt",
                "--telemetry-port",
                "auto",
                "--telemetry-port-file",
                "tport.txt",
                "--journal",
                "served.jsonl",
            ])
            .current_dir(&dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn cps serve"),
    );
    let wait_addr = |name: &str| {
        let path = dir.join(name);
        for _ in 0..200 {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if text.trim().contains(':') {
                    return text.trim().to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        panic!("cps serve never wrote {name}");
    };
    let addr = wait_addr("port.txt");
    let taddr = wait_addr("tport.txt");
    let port = addr.rsplit(':').next().unwrap();

    // A scriptable snapshot before any records: the subscribe ack and
    // the immediate full metrics frame are enough to render.
    let s = stdout(&cps(&["top", &addr, "--once", "true"], &dir));
    assert!(s.contains("single engine, 2 tenants"), "{s}");
    assert!(s.contains("waiting for the first epoch boundary"), "{s}");

    // The benchmark run with both telemetry riders attached.
    let s = stdout(&cps(
        &[
            "bench-net",
            "--workloads",
            "loop:12,zipf:100:0.8",
            "--len",
            "12000",
            "--port",
            port,
            "--observe",
            "true",
            "--scrape",
            &taddr,
        ],
        &dir,
    ));
    assert!(s.contains("report identity: OK"), "{s}");
    assert!(s.contains("epoch frames"), "{s}");
    assert!(s.contains("all 200 OK"), "{s}");

    for _ in 0..200 {
        if child.0.try_wait().expect("try_wait").is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // The journal the watched daemon wrote still inspects clean and
    // exports a Chrome trace.
    let s = stdout(&cps(
        &["inspect", "served.jsonl", "--chrome-trace", "trace.json"],
        &dir,
    ));
    assert!(s.contains("chrome trace:"), "{s}");
    let trace = std::fs::read_to_string(dir.join("trace.json")).unwrap();
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(trace.contains("\"cat\":\"stage\""), "{trace}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `cps inspect --follow` tails a journal another process is still
/// writing: epochs print as they land and the summary line ends the
/// tail with a zero exit.
#[test]
fn inspect_follow_tails_a_growing_journal() {
    let dir = tempdir("follow");
    stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            "loop:12,uniform:80",
            "--len",
            "12000",
            "--units",
            "16",
            "--epoch",
            "2000",
            "--journal",
            "full.jsonl",
        ],
        &dir,
    ));
    let full = std::fs::read_to_string(dir.join("full.jsonl")).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 4, "need a few lines to tail");

    // Start the tail against a half-written copy...
    let half = lines.len() / 2;
    let growing = dir.join("growing.jsonl");
    std::fs::write(&growing, format!("{}\n", lines[..half].join("\n"))).unwrap();
    let tail = Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(["inspect", "growing.jsonl", "--follow", "true"])
        .current_dir(&dir)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn follow");
    std::thread::sleep(std::time::Duration::from_millis(300));

    // ...then finish the file; the tail must notice, print the rest,
    // and exit on the summary.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&growing)
        .unwrap();
    writeln!(f, "{}", lines[half..].join("\n")).unwrap();
    drop(f);
    let out = tail.wait_with_output().expect("follow exits");
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "follow failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(s.contains("following growing.jsonl"), "{s}");
    assert!(s.contains("run finished:"), "{s}");
    assert!(s.contains("12000 accesses"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that hangs up early has seen what it asked for: `cps
/// inspect J | head -2` and `cps trace stat F | head -1` used to die on
/// `println!`'s broken-pipe panic (exit 101 and a backtrace). Both
/// reports go through one buffered writer that ends quietly instead.
#[test]
fn inspect_and_trace_stat_end_quietly_on_a_closed_stdout() {
    use std::io::BufRead;
    use std::process::Stdio;

    let dir = tempdir("epipe");
    // 3000 epochs make a report several times the 64 KiB a pipe holds,
    // so inspect is still writing when its reader goes away.
    stdout(&cps(
        &[
            "replay-online",
            "--workloads",
            "loop:24,zipf:150:0.8,uniform:300",
            "--len",
            "60000",
            "--units",
            "8",
            "--epoch",
            "20",
            "--journal",
            "long.jsonl",
        ],
        &dir,
    ));
    let mut inspect = Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(["inspect", "long.jsonl"])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn inspect");
    let mut reader = std::io::BufReader::new(inspect.stdout.take().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.starts_with("journal OK"), "{first}");
    drop(reader); // the read end closes after the first line
    let out = inspect.wait_with_output().expect("inspect exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "inspect: {:?}: {err}", out.status);
    assert!(err.is_empty(), "inspect: {err}");

    // `trace stat`'s whole report fits a pipe, so closing after the
    // first line would race the writer; its stdout is closed from the
    // start, and the very first write meets the broken pipe.
    stdout(&cps(
        &[
            "trace",
            "gen",
            "--workloads",
            "loop:24,uniform:300",
            "--len",
            "5000",
            "--out",
            "t.bin",
        ],
        &dir,
    ));
    let (read_end, write_end) = std::io::pipe().expect("pipe");
    drop(read_end);
    let out = Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(["trace", "stat", "t.bin"])
        .current_dir(&dir)
        .stdout(write_end)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn trace stat");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "trace stat: {:?}: {err}", out.status);
    assert!(err.is_empty(), "trace stat: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_flags_reject_degenerate_values() {
    let dir = tempdir("telemetry-flags");
    std::fs::write(
        dir.join("t.jsonl"),
        "{\"v\":3,\"kind\":\"tournament\",\"note\":\"sniff only\"}\n",
    )
    .unwrap();
    std::fs::write(dir.join("empty.jsonl"), "").unwrap();
    let cases: &[(&[&str], &str)] = &[
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "16",
                "--port",
                "auto",
                "--telemetry-port",
                "0",
            ],
            "--telemetry-port",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "16",
                "--port",
                "auto",
                "--telemetry-port",
                "nope",
            ],
            "--telemetry-port",
        ),
        (
            &[
                "serve",
                "--tenants",
                "2",
                "--units",
                "16",
                "--port",
                "auto",
                "--telemetry-port-file",
                "t.txt",
            ],
            "--telemetry-port-file needs --telemetry-port",
        ),
        (&["top"], "usage: cps top"),
        (&["top", "127.0.0.1:1", "--refresh", "0"], "--refresh"),
        (&["top", "127.0.0.1:1", "--once", "maybe"], "--once"),
        (&["inspect", "empty.jsonl", "--follow", "maybe"], "--follow"),
        (
            &[
                "inspect",
                "empty.jsonl",
                "--follow",
                "true",
                "--chrome-trace",
                "out.json",
            ],
            "--chrome-trace",
        ),
        (
            &["inspect", "t.jsonl", "--chrome-trace", "out.json"],
            "tournament",
        ),
        (
            &[
                "bench-net",
                "--workloads",
                "loop:4,loop:8",
                "--port",
                "1",
                "--observe",
                "maybe",
            ],
            "--observe",
        ),
    ];
    for (args, needle) in cases {
        let out = cps(args, &dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} should fail:\n{stderr}");
        assert!(
            stderr.contains(needle),
            "{args:?} should mention `{needle}`:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{args:?} must not panic:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
