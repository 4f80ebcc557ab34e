//! End-to-end tests of the real-trace front door: `cps trace
//! gen/convert/stat`, `--trace-file` replays through `cps
//! replay-online` and `cps bench-net`, and the canonical-journal
//! identity that ties them all together — a generator-driven run, a
//! binary trace file, its text and CSV conversions, and a run served
//! over a live daemon must all describe the identical engine run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::Duration;

fn cps(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cps"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn cps")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps-trace-test-{tag}-{}", std::process::id()));
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

/// Kills the daemon if a test fails before it shuts down cleanly.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

const WORKLOADS: &str = "loop:24,zipf:150:0.8,uniform:300";
const GEN_FLAGS: &[&str] = &["--len", "30000", "--seed", "9", "--rates", "1.0,2.0,1.0"];
const ENGINE: &[&str] = &["--units", "48", "--bpu", "2", "--epoch", "3000"];

fn canonical(dir: &Path, journal: &str) -> String {
    let out = format!("{journal}.canon");
    let s = stdout(&cps(&["inspect", journal, "--canonical", &out], dir));
    assert!(s.contains("canonical journal"), "{s}");
    std::fs::read_to_string(dir.join(&out)).unwrap()
}

/// The tentpole identity chain, in process: the generator-driven
/// `replay-online --workloads` run, the same stream written to a binary
/// trace file by `cps trace gen` and replayed via `--trace-file`, and
/// the text/CSV conversions of that file all produce canonically
/// identical journals.
#[test]
fn generator_file_and_converted_replays_are_identical() {
    let dir = tempdir("identity");

    let mut args = vec!["replay-online", "--workloads", WORKLOADS];
    args.extend_from_slice(GEN_FLAGS);
    args.extend_from_slice(ENGINE);
    args.extend_from_slice(&["--journal", "gen.jsonl"]);
    stdout(&cps(&args, &dir));

    let mut args = vec!["trace", "gen", "--workloads", WORKLOADS, "--out", "t.bin"];
    args.extend_from_slice(GEN_FLAGS);
    let s = stdout(&cps(&args, &dir));
    assert!(s.contains("30000"), "{s}");

    for (file, to, extra) in [
        ("t.bin", "", &[][..]),
        ("t.txt", "text", &["--block-bytes", "1"][..]),
        ("t.csv", "csv", &["--block-bytes", "1"][..]),
    ] {
        let tag = &file[2..];
        if !to.is_empty() {
            stdout(&cps(
                &["trace", "convert", "t.bin", "--out", file, "--to", to],
                &dir,
            ));
        }
        let journal = format!("{tag}.jsonl");
        let metrics = format!("{tag}.prom");
        let mut args = vec!["replay-online", "--trace-file", file, "--tenants", "3"];
        args.extend_from_slice(ENGINE);
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--journal", &journal, "--metrics-out", &metrics]);
        let s = stdout(&cps(&args, &dir));
        assert!(s.contains("trace read: 30000 records"), "{tag}: {s}");
        // The reader's counters move a block at a time and must still
        // end on the exact totals: every record, every byte.
        let prom = std::fs::read_to_string(dir.join(&metrics)).unwrap();
        let bytes = std::fs::metadata(dir.join(file)).unwrap().len();
        for total in [
            "cps_traceio_records_total 30000".to_string(),
            format!("cps_traceio_bytes_read_total {bytes}"),
        ] {
            assert!(
                prom.lines().any(|l| l == total),
                "{tag}: no `{total}` in {prom}"
            );
        }
        assert_eq!(
            canonical(&dir, "gen.jsonl"),
            canonical(&dir, &journal),
            "{tag} replay diverged from the generator run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cps trace gen` writes straight out of the lazy interleaver; the
/// file must stay, byte for byte, the batch interleave of full-length
/// per-tenant traces (the benchmark pins it as its `input_digest`).
#[test]
fn trace_gen_streams_the_batch_interleave_byte_for_byte() {
    use cache_partition_sharing::prelude::*;
    use cache_partition_sharing::traceio::{BinaryWriter, CsvWriter};

    let dir = tempdir("gen-identity");
    let len = 20_000;
    let mix3 = (
        WORKLOADS,
        "1.0,2.0,1.0",
        vec![
            WorkloadSpec::SequentialLoop { working_set: 24 },
            WorkloadSpec::Zipfian {
                region: 150,
                alpha: 0.8,
            },
            WorkloadSpec::UniformRandom { region: 300 },
        ],
        vec![1.0, 2.0, 1.0],
    );
    let mix4 = (
        "loop:24,zipf:150:0.8,walk:300:30:500,uniform:400",
        "1,2,1,1.5",
        vec![
            WorkloadSpec::SequentialLoop { working_set: 24 },
            WorkloadSpec::Zipfian {
                region: 150,
                alpha: 0.8,
            },
            WorkloadSpec::WorkingSetWalk {
                region: 300,
                window: 30,
                dwell: 500,
            },
            WorkloadSpec::UniformRandom { region: 400 },
        ],
        vec![1.0, 2.0, 1.0, 1.5],
    );
    for (workloads, rate_flag, specs, rates) in [mix3, mix4] {
        for seed in [42u64, 7] {
            let traces: Vec<Trace> = specs
                .iter()
                .enumerate()
                .map(|(i, s)| s.generate(len, seed + i as u64 + 1))
                .collect();
            let refs: Vec<&Trace> = traces.iter().collect();
            let co = interleave_proportional(&refs, &rates, len);
            for to in ["binary", "csv"] {
                let mut want = Vec::new();
                if to == "binary" {
                    let mut w = BinaryWriter::new(&mut want, 1).unwrap();
                    for (t, b) in co.tenant_accesses() {
                        w.write_record(t as u64, b).unwrap();
                    }
                    w.finish().unwrap();
                } else {
                    let mut w = CsvWriter::new(&mut want).unwrap();
                    for (t, b) in co.tenant_accesses() {
                        w.write_record(t as u64, b).unwrap();
                    }
                    w.finish().unwrap();
                }
                let (len, seed) = (len.to_string(), seed.to_string());
                stdout(&cps(
                    &[
                        "trace",
                        "gen",
                        "--workloads",
                        workloads,
                        "--rates",
                        rate_flag,
                        "--len",
                        &len,
                        "--seed",
                        &seed,
                        "--to",
                        to,
                        "--out",
                        "g.out",
                    ],
                    &dir,
                ));
                let got = std::fs::read(dir.join("g.out")).unwrap();
                assert!(
                    got == want,
                    "{workloads} seed {seed} --to {to}: the generated file moved"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Starts `cps serve` for the 3-tenant test stream in `dir`, its port
/// in `{tag}.port` and its journal in `{tag}.jsonl`, plus `extra`
/// flags; returns the daemon and the port it published.
fn spawn_daemon(dir: &Path, tag: &str, extra: &[&str]) -> (ChildGuard, String) {
    let port_file = format!("{tag}.port");
    let child = ChildGuard(
        Command::new(env!("CARGO_BIN_EXE_cps"))
            .args(["serve", "--tenants", "3"])
            .args(ENGINE)
            .args(extra)
            .args(["--port", "auto", "--port-file", &port_file])
            .args(["--journal", &format!("{tag}.jsonl")])
            .current_dir(dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn cps serve"),
    );
    let path = dir.join(port_file);
    for _ in 0..200 {
        match std::fs::read_to_string(&path) {
            Ok(text) if text.trim().contains(':') => {
                let port = text.trim().rsplit(':').next().unwrap().to_string();
                return (child, port);
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    panic!("cps serve never wrote --port-file");
}

/// Runs `cps ARGS` in `dir` like [`cps`], but fails the test if it has
/// not exited within `limit`: a wedged client is a failure, not a hang.
/// (The failing test drops its daemon, which ends the client.)
fn cps_within(args: &[&str], dir: &Path, limit: Duration) -> Output {
    let (done, output) = std::sync::mpsc::channel();
    let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let dir = dir.to_path_buf();
    std::thread::spawn(move || {
        let args: Vec<&str> = owned.iter().map(String::as_str).collect();
        let _ = done.send(cps(&args, &dir));
    });
    output
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("cps {args:?} did not finish within {limit:?}"))
}

/// The same trace file served over the wire: `cps bench-net
/// --trace-file` sends it to a live `cps serve` daemon — dealt across
/// two sequenced connections as it is read, streamed frame by frame
/// over one (777 does not divide 30,000, so the tail frame is
/// exercised), and dealt across three through a 1500-slot window, where
/// every 1024-record frame spans 3070 positions and parks its tail,
/// plain and with connection 0 dropped and resumed — verifies report
/// identity itself within a minute (one dealer feeds every sender, and
/// must not wedge), and the daemon's own journal is canonically the
/// `replay-online --trace-file` run.
#[test]
fn trace_file_serves_identically_over_the_wire() {
    let dir = tempdir("served");

    let mut args = vec!["trace", "gen", "--workloads", WORKLOADS, "--out", "t.bin"];
    args.extend_from_slice(GEN_FLAGS);
    stdout(&cps(&args, &dir));
    let mut args = vec!["replay-online", "--trace-file", "t.bin", "--tenants", "3"];
    args.extend_from_slice(ENGINE);
    args.extend_from_slice(&["--journal", "replayed.jsonl"]);
    stdout(&cps(&args, &dir));
    let replayed = canonical(&dir, "replayed.jsonl");

    let small_window = &["--window-cap", "1500"][..];
    for (tag, serving, sending) in [
        ("fanin", &[][..], &["--connections", "2"][..]),
        ("streamed", &[], &["--connections", "1", "--batch", "777"]),
        ("dealt", small_window, &["--connections", "3"]),
        (
            "resumed",
            small_window,
            &["--connections", "3", "--kill-resume", "true"],
        ),
    ] {
        let (mut child, port) = spawn_daemon(&dir, tag, serving);
        let mut args = vec!["bench-net", "--trace-file", "t.bin", "--port", &port];
        args.extend_from_slice(sending);
        let s = stdout(&cps_within(&args, &dir, Duration::from_secs(60)));
        assert!(s.contains("trace read: 30000 records"), "{tag}: {s}");
        assert!(s.contains("report identity: OK"), "{tag}: {s}");
        assert!(s.contains("decode + send"), "{tag}: {s}");
        assert_eq!(
            s.contains("resumed at position"),
            tag == "resumed",
            "{tag}: {s}"
        );

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
        assert!(status.success(), "{tag}: cps serve exited nonzero");
        assert_eq!(
            canonical(&dir, &format!("{tag}.jsonl")),
            replayed,
            "{tag}: the served journal diverged from the in-process replay"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace file that ends mid-record is found out while it is being
/// streamed: `bench-net` must stop with the file and byte offset, as
/// `replay-online` does — not hang on the daemon, not panic — over one
/// connection and over two dealt ones.
#[test]
fn truncated_trace_file_fails_bench_net_politely() {
    let dir = tempdir("truncated");
    let mut args = vec!["trace", "gen", "--workloads", WORKLOADS, "--out", "t.bin"];
    args.extend_from_slice(GEN_FLAGS);
    stdout(&cps(&args, &dir));
    let whole = std::fs::read(dir.join("t.bin")).unwrap();
    std::fs::write(dir.join("cut.bin"), &whole[..whole.len() / 2 + 3]).unwrap();

    for connections in ["1", "2"] {
        let (_daemon, port) = spawn_daemon(&dir, &format!("cut{connections}"), &[]);
        let out = cps_within(
            &[
                "bench-net",
                "--trace-file",
                "cut.bin",
                "--port",
                &port,
                "--batch",
                "777",
                "--connections",
                connections,
            ],
            &dir,
            Duration::from_secs(60),
        );
        assert!(!out.status.success(), "a truncated trace served cleanly");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("cut.bin"), "{connections}: {err}");
        assert!(err.contains("truncated at byte"), "{connections}: {err}");
        assert!(!err.contains("panicked"), "{connections}: {err}");
        // The guard kills the daemon, which is still waiting for records.
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cps trace stat` reads any of the three formats and reports the
/// stream's shape in one bounded pass.
#[test]
fn trace_stat_reports_the_stream_shape() {
    let dir = tempdir("stat");
    let mut args = vec!["trace", "gen", "--workloads", WORKLOADS, "--out", "t.bin"];
    args.extend_from_slice(GEN_FLAGS);
    stdout(&cps(&args, &dir));

    let s = stdout(&cps(&["trace", "stat", "t.bin"], &dir));
    assert!(s.contains("binary format"), "{s}");
    assert!(s.contains("records: 30000"), "{s}");
    assert!(s.contains("tenants: 3"), "{s}");
    assert!(s.contains("distinct blocks:"), "{s}");
    assert!(s.contains("block range:"), "{s}");

    stdout(&cps(
        &["trace", "convert", "t.bin", "--out", "t.csv", "--to", "csv"],
        &dir,
    ));
    let s = stdout(&cps(
        &["trace", "stat", "t.csv", "--block-bytes", "1"],
        &dir,
    ));
    assert!(s.contains("csv format"), "{s}");
    assert!(s.contains("records: 30000"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Malformed input is a friendly, typed, nonzero-exit error — with the
/// offending line and byte offset — never a panic; `--lenient true`
/// skips past it and reports the skips.
#[test]
fn malformed_traces_fail_politely_and_leniently_skip() {
    let dir = tempdir("malformed");
    std::fs::write(
        dir.join("bad.csv"),
        "addr,tenant\n0x10,0\nbanana,0\n0x20,1\n",
    )
    .unwrap();

    let out = cps(
        &[
            "replay-online",
            "--trace-file",
            "bad.csv",
            "--tenants",
            "2",
            "--units",
            "8",
        ],
        &dir,
    );
    assert!(!out.status.success(), "strict replay of bad input passed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3"), "{err}");
    assert!(err.contains("banana"), "{err}");
    assert!(!err.contains("panicked"), "{err}");

    let s = stdout(&cps(
        &["trace", "stat", "bad.csv", "--lenient", "true"],
        &dir,
    ));
    assert!(s.contains("records: 2"), "{s}");
    assert!(s.contains("malformed"), "{s}");

    // A missing file is an error message, not a panic or a zero exit.
    let out = cps(&["trace", "stat", "no-such-file.bin"], &dir);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no-such-file.bin"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
