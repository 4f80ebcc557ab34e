//! The five workloads, their set-up, their timed passes, and the
//! output checks made outside the timed region of every pass.
//!
//! Every end-to-end number comes from `cps` child processes
//! (`cps trace gen`, `cps serve`, `cps bench-net`, `cps replay-online`,
//! `cps tournament`, `cps inspect --canonical`) timed and accounted
//! from outside; the only library code on an end-to-end path is the
//! closed-loop `cps_serve::Client` that measures allocation-ready
//! latency.

use crate::json;
use crate::proc::{run_capture, Usage, Watch};
use crate::stats::{self, fnv_hex, Fnv};
use cps_obs::Journal;
use cps_serve::Client;
use std::cell::Cell;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

const MIX4: &str = "loop:24,zipf:150:0.8,walk:300:30:500,uniform:400";
const MIX4_RATES: &str = "1,2,1,1.5";
const MIX8: &str = "loop:24,zipf:150:0.8,walk:300:30:500,uniform:400,\
                    loop:96,zipf:600:0.9,walk:800:60:1000,uniform:200";
const MIX8_RATES: &str = "1,2,1,1.5,1,2,1,1.5";

/// Records per wire frame, as `cps bench-net --batch` sends them.
pub const BATCH: usize = 1024;
/// Set-up is repeated at least this often, and on until it has taken
/// `SETUP_MIN_S` in total (a set-up of a few tens of milliseconds needs
/// more repetitions for a steady median) or hit the cap; `setup_s` is
/// the median repetition.
const SETUP_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_S: f64 = 0.6;
const GROUP_SIZE: usize = 4;
const TOURNAMENT_UNITS: usize = 1024;

/// The interleaved stream `cps trace gen` writes for a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stream {
    pub specs: &'static str,
    pub rates: &'static str,
    pub records: usize,
}

/// The engine geometry the stream is served under.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Engine {
    pub tenants: usize,
    pub units: usize,
    pub bpu: usize,
    pub epoch: usize,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// Trace file → `cps bench-net` → `cps serve` → journal.
    Serve { connections: usize },
    /// `cps replay-online --trace-file … --shards N`.
    Replay { shards: usize },
    /// `cps tournament` over every 4-program group of the first
    /// `programs` study programs at `len` accesses each.
    Tournament { programs: usize, len: usize },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// What `throughput` and `cpu_ns_per_item` count.
    pub item: &'static str,
    /// For `Tournament`, which runs no stream, this is the probe stream
    /// the traced run replays at the tournament's cache shape.
    pub stream: Stream,
    pub engine: Engine,
    pub kind: Kind,
    /// Rounds measured in a 10-second run. A round is `free_per_round`
    /// free-running passes plus, for the serve workloads, one
    /// closed-loop pass.
    pub rounds: usize,
    pub free_per_round: usize,
}

/// The workload set. Sizes are the largest that keep one round near
/// three seconds, so a 10 s run still takes a median over passes; the
/// paper-scale shapes (C = 1024, P = 8; every 4-group of the study
/// set) are kept and the record and group counts cut instead.
pub fn all() -> Vec<Workload> {
    let mix4 = Stream {
        specs: MIX4,
        rates: MIX4_RATES,
        records: 4_000_000,
    };
    let ingest = Engine {
        tenants: 4,
        units: 32,
        bpu: 4,
        epoch: 2_000,
    };
    vec![
        Workload {
            name: "serve-ingest",
            why: "4M records, 1 connection, C=32: the per-record path (parse, wire, pump, \
                  profile, cache) is ~99% of the work; solver changes must show nothing here",
            item: "records",
            stream: mix4,
            engine: ingest,
            kind: Kind::Serve { connections: 1 },
            rounds: 3,
            free_per_round: 1,
        },
        Workload {
            name: "serve-solve",
            why: "8 tenants at the paper's C=1024: the DP solve is ~98% of stage time, so \
                  solver and curve-build work shows here and ingest work must not",
            item: "records",
            stream: Stream {
                specs: MIX8,
                rates: MIX8_RATES,
                records: 400_000,
            },
            engine: Engine {
                tenants: 8,
                units: 1024,
                bpu: 1,
                epoch: 4_000,
            },
            kind: Kind::Serve { connections: 1 },
            rounds: 2,
            free_per_round: 1,
        },
        Workload {
            name: "serve-fanin",
            why: "the serve-ingest mix over 2 sequenced connections: position-stamped \
                  frames and the reorder window instead of plain batches",
            item: "records",
            // Four busy threads on two cores make single passes swing by
            // +-20%, so this workload trades pass length for pass count.
            stream: Stream {
                records: 2_000_000,
                ..mix4
            },
            engine: ingest,
            kind: Kind::Serve { connections: 2 },
            rounds: 4,
            free_per_round: 2,
        },
        Workload {
            name: "replay-sharded",
            why: "no wire: the same file replayed in process inline, then over 2 shards, \
                  identity checked; the single-threaded baseline and the engine's fan-out",
            item: "records",
            stream: mix4,
            engine: Engine {
                tenants: 4,
                units: 128,
                bpu: 4,
                epoch: 100_000,
            },
            kind: Kind::Replay { shards: 2 },
            rounds: 8,
            free_per_round: 1,
        },
        Workload {
            name: "batch-groups",
            why: "the solver in bulk on static curves: every 4-program group of 10 study \
                  programs x 6 schemes at C=1024, with no stream, wire or actuator",
            item: "groups",
            stream: Stream {
                specs: MIX4,
                rates: MIX4_RATES,
                records: 200_000,
            },
            engine: Engine {
                tenants: GROUP_SIZE,
                units: TOURNAMENT_UNITS,
                bpu: 1,
                epoch: 4_000,
            },
            kind: Kind::Tournament {
                programs: 10,
                len: 60_000,
            },
            rounds: 3,
            free_per_round: 1,
        },
    ]
}

impl Workload {
    /// The same workload at `1/div` of its size, one round — for the
    /// plumbing smoke test only; never reachable from the CLI.
    #[cfg(test)]
    pub fn shrunk(&self, div: usize) -> Workload {
        let mut w = self.clone();
        let epochs = (w.stream.records / div / w.engine.epoch).max(2);
        w.engine.epoch = w.engine.epoch.min(w.stream.records / div / 2);
        w.stream.records = epochs * w.engine.epoch;
        if let Kind::Tournament { len, .. } = w.kind {
            w.kind = Kind::Tournament {
                programs: GROUP_SIZE + 1,
                len: len / div,
            };
        }
        w.rounds = 1;
        w
    }

    /// Items one free-running pass processes.
    pub fn items(&self) -> u64 {
        match self.kind {
            Kind::Tournament { programs, .. } => binomial(programs, GROUP_SIZE),
            _ => self.stream.records as u64,
        }
    }

    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((self.rounds as u64 * seconds + 5) / 10).max(1) as usize
    }

    /// The seed reaches `cps tournament`, which has no seed flag, as
    /// the study programs' trace length: up to 1023 accesses on top of
    /// the base, enough to give every seed its own profiles.
    fn tournament_len(&self, seed: u64) -> usize {
        match self.kind {
            Kind::Tournament { len, .. } => {
                len + (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as usize
            }
            _ => 0,
        }
    }
}

fn binomial(n: usize, k: usize) -> u64 {
    (0..k).fold(1u64, |acc, i| acc * (n - i) as u64 / (i as u64 + 1))
}

/// Where the harness may write: `benchmark/work/`, inside the checkout
/// and git-ignored.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// Builds the `cps` binary from the root package (a no-op when fresh)
/// and returns its path. The inner cargo runs from the repository root
/// so a relative `CARGO_TARGET_DIR` means the same directory it meant
/// to the cargo that built this harness.
pub fn ensure_cps() -> Result<PathBuf, String> {
    let root = repo_root();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    run_capture(
        Command::new(cargo)
            .args(["build", "--release", "--offline", "--bin", "cps"])
            .current_dir(&root),
    )
    .map_err(|e| format!("building the cps binary: {e}"))?;
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let bin = target.join("release").join("cps");
    if !bin.is_file() {
        return Err(format!(
            "no cps binary at {} after `cargo build --release --offline --bin cps`; refusing to run",
            bin.display()
        ));
    }
    Ok(bin)
}

/// One run's scratch directory and binary.
pub struct Ctx {
    pub cps: PathBuf,
    pub dir: PathBuf,
    seq: Cell<u32>,
}

impl Ctx {
    pub fn new(cps: PathBuf, tag: &str) -> Result<Ctx, String> {
        // Unique per process and per context: concurrent benchmark
        // processes and concurrent tests never share a directory.
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = work_root().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Ctx {
            cps,
            dir,
            seq: Cell::new(0),
        })
    }

    pub fn cps(&self) -> Command {
        let mut cmd = Command::new(&self.cps);
        cmd.current_dir(&self.dir);
        cmd
    }

    /// A fresh path in the scratch directory.
    pub fn path(&self, stem: &str) -> PathBuf {
        let n = self.seq.get();
        self.seq.set(n + 1);
        self.dir.join(format!("{n:03}-{stem}"))
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// What one pass measured and what its output checks found.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Client (or command) spawn to system-under-test exit, seconds.
    pub wall_s: f64,
    /// user+sys CPU of the system under test, seconds.
    pub sut_cpu_s: f64,
    pub peak_rss_kb: u64,
    /// Load generator CPU up to the daemon's exit (serve passes).
    pub client_cpu_s: Option<f64>,
    /// Items the pass was asked to process / the journal accounts for.
    pub attempted: u64,
    pub accounted: u64,
    pub solution_cost: f64,
    /// FNV of the canonical journal (wall-clock fields zeroed).
    pub journal_digest: String,
    /// Allocation-ready samples, ms (see README for the per-workload
    /// definition).
    pub ready_ms: Vec<f64>,
    /// Output checks that failed; empty means the pass is correct.
    pub violations: Vec<String>,
    /// Raw journal text, kept for the traced run's staged replay.
    pub journal_text: String,
}

impl Pass {
    /// Items this pass failed: what its journal does not account for,
    /// or all of them when any check (`violations`: the pass's own plus
    /// the caller's cross-pass ones) failed.
    pub fn failed_items(&self, violations: &[String]) -> u64 {
        if violations.is_empty() {
            self.attempted.abs_diff(self.accounted)
        } else {
            self.attempted
        }
    }
}

struct Daemon {
    watch: Watch,
    addr: String,
    journal: PathBuf,
}

fn engine_args(e: &Engine) -> Vec<String> {
    [
        ("--tenants", e.tenants),
        ("--units", e.units),
        ("--bpu", e.bpu),
        ("--epoch", e.epoch),
    ]
    .iter()
    .flat_map(|(k, v)| [k.to_string(), v.to_string()])
    .collect()
}

/// Starts `cps serve` and waits until its port file appears.
fn start_daemon(ctx: &Ctx, engine: &Engine) -> Result<Daemon, String> {
    let port_file = ctx.path("port.txt");
    let journal = ctx.path("served.jsonl");
    let mut cmd = ctx.cps();
    cmd.arg("serve")
        .args(engine_args(engine))
        .args(["--port", "auto", "--port-file"])
        .arg(&port_file)
        .arg("--journal")
        .arg(&journal);
    let watch = Watch::spawn(cmd, &ctx.path("serve"))?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if text.ends_with('\n') {
                return Ok(Daemon {
                    watch,
                    addr: text.trim().to_string(),
                    journal,
                });
            }
        }
        if watch.finished() || Instant::now() >= deadline {
            let usage = watch.kill()?;
            return Err(format!(
                "cps serve never published its port\n{}",
                usage.output_tail()
            ));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Waits for the daemon to exit on the client's SHUTDOWN. A client that
/// dies first would leave the daemon serving forever, so that case
/// kills it and is an error.
fn join_daemon(daemon: Watch, client: Option<&Watch>) -> Result<Usage, String> {
    let deadline = Instant::now() + Duration::from_secs(150);
    let mut client_gone_at: Option<Instant> = None;
    while !daemon.finished() {
        if let Some(c) = client {
            if c.finished() && client_gone_at.is_none() {
                client_gone_at = Some(Instant::now());
            }
        }
        let orphaned = client_gone_at.is_some_and(|t| t.elapsed() > Duration::from_secs(2));
        if orphaned || Instant::now() >= deadline {
            let usage = daemon.kill()?;
            return Err(format!(
                "cps serve did not shut down with its client\n{}",
                usage.output_tail()
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let usage = daemon.join()?;
    if !usage.success {
        return Err(format!("cps serve exited nonzero\n{}", usage.output_tail()));
    }
    Ok(usage)
}

/// Canonical text and validated facts of one epoch journal. `cps
/// inspect --canonical` is both the CLI-level acceptance of the
/// journal (nonzero exit on any schema or totals drift) and the
/// wall-clock-free text two runs are diffed by.
fn check_journal(ctx: &Ctx, path: &Path, engine: &Engine, pass: &mut Pass) -> Result<(), String> {
    let canonical = run_capture(
        ctx.cps()
            .arg("inspect")
            .arg(path)
            .args(["--canonical", "-"]),
    )
    .map_err(|e| format!("cps inspect rejected {}: {e}", path.display()))?;
    pass.journal_digest = fnv_hex(canonical.as_bytes());
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    // `parse` validates too: every epoch's allocation sums to the
    // header's units and the epoch lines add up to the summary.
    let journal = Journal::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if journal.header.units != engine.units || journal.header.tenants != engine.tenants {
        pass.violations.push(format!(
            "journal header says {} tenants x {} units, the daemon was started with {} x {}",
            journal.header.tenants, journal.header.units, engine.tenants, engine.units
        ));
    }
    pass.accounted = journal.summary.accesses;
    if pass.accounted != pass.attempted {
        pass.violations.push(format!(
            "journal accounts for {} records, {} were sent",
            pass.accounted, pass.attempted
        ));
    }
    pass.solution_cost = journal.cumulative_miss_ratio();
    pass.ready_ms = journal
        .epochs
        .iter()
        .map(|e| e.timings.total_nanos() as f64 / 1e6)
        .collect();
    pass.journal_text = text;
    Ok(())
}

/// One free-running serve pass: `cps bench-net` streams the trace file
/// to a fresh daemon as fast as the socket takes it (closed only by
/// TCP backpressure), SHUTDOWN ends the daemon, and the clock stops
/// when the daemon has exited with its journal on disk.
pub fn serve_free_pass(
    ctx: &Ctx,
    w: &Workload,
    trace: &Path,
    connections: usize,
    observe: bool,
) -> Result<Pass, String> {
    let daemon = start_daemon(ctx, &w.engine)?;
    let port = daemon
        .addr
        .rsplit(':')
        .next()
        .unwrap_or_default()
        .to_string();
    let mut cmd = ctx.cps();
    cmd.arg("bench-net")
        .arg("--trace-file")
        .arg(trace)
        .args(["--port", &port, "--batch", &BATCH.to_string()])
        .args(["--connections", &connections.to_string()]);
    if observe {
        cmd.args(["--observe", "true"]);
    }
    let started = Instant::now();
    let client = Watch::spawn(cmd, &ctx.path("bench-net"))?;
    daemon.watch.set_peer(client.pid());
    let served = join_daemon(daemon.watch, Some(&client))?;
    let client = client.join()?;

    let mut pass = Pass {
        wall_s: served.exited.duration_since(started).as_secs_f64(),
        sut_cpu_s: served.cpu_s,
        peak_rss_kb: served.peak_rss_kb,
        client_cpu_s: served.peer_cpu_s,
        attempted: w.stream.records as u64,
        ..Pass::default()
    };
    if !client.success || !client.stdout_text().contains("report identity: OK") {
        pass.violations.push(format!(
            "bench-net did not report identity\n{}",
            client.output_tail()
        ));
    }
    check_journal(ctx, &daemon.journal, &w.engine, &mut pass)?;
    Ok(pass)
}

/// One closed-loop serve pass, one harness thread: for each epoch the
/// client(s) send that epoch's records as sequenced batches, then ask
/// for the allocation; the sample is the time from handing over the
/// epoch's last batch to the reply. The control verb is barriered on
/// the asking session's watermark, which is the epoch's last position,
/// so the reply cannot precede the epoch's solve. With two connections
/// session 0 owns the even positions and session 1 the odd ones.
pub fn serve_sync_pass(
    ctx: &Ctx,
    w: &Workload,
    records: &[(u64, u64)],
    connections: usize,
) -> Result<Pass, String> {
    let serve_err = |what: &str, e: cps_serve::ServeError| format!("{what}: {e}");
    let daemon = start_daemon(ctx, &w.engine)?;
    let started = Instant::now();
    let mut clients = (0..connections)
        .map(|_| Client::connect(&daemon.addr, None).map_err(|e| serve_err("connect", e)))
        .collect::<Result<Vec<_>, _>>()?;
    let last = connections - 1;
    let mut ready_ms = Vec::with_capacity(records.len() / w.engine.epoch + 1);
    let mut base = 0u64;
    for epoch in records.chunks(w.engine.epoch) {
        let mut handed_over = Instant::now();
        for (j, client) in clients.iter_mut().enumerate() {
            let mine: Vec<(u64, u64, u64)> = epoch
                .iter()
                .enumerate()
                .skip(j)
                .step_by(connections)
                .map(|(i, &(t, b))| (base + i as u64, t, b))
                .collect();
            let batches = mine.len().div_ceil(BATCH);
            for (k, chunk) in mine.chunks(BATCH).enumerate() {
                if j == last && k + 1 == batches {
                    handed_over = Instant::now();
                }
                client
                    .push_batch_seq(chunk)
                    .map_err(|e| serve_err("push batch", e))?;
            }
        }
        let units = clients[last]
            .allocation()
            .map_err(|e| serve_err("allocation", e))?;
        ready_ms.push(handed_over.elapsed().as_secs_f64() * 1e3);
        if units.iter().sum::<u64>() != w.engine.units as u64 {
            return Err(format!(
                "allocation reply {units:?} does not partition {} units",
                w.engine.units
            ));
        }
        base += epoch.len() as u64;
    }
    let asker = clients.pop().expect("at least one connection");
    asker.shutdown().map_err(|e| serve_err("shutdown", e))?;
    let served = join_daemon(daemon.watch, None)?;
    drop(clients);

    let mut pass = Pass {
        wall_s: served.exited.duration_since(started).as_secs_f64(),
        sut_cpu_s: served.cpu_s,
        peak_rss_kb: served.peak_rss_kb,
        attempted: records.len() as u64,
        ..Pass::default()
    };
    check_journal(ctx, &daemon.journal, &w.engine, &mut pass)?;
    pass.ready_ms = ready_ms;
    Ok(pass)
}

/// `Client::allocation` round trips on an idle daemon, microseconds —
/// the floor under every allocation-ready sample.
pub fn control_roundtrips_us(ctx: &Ctx, w: &Workload, samples: usize) -> Result<Vec<f64>, String> {
    let daemon = start_daemon(ctx, &w.engine)?;
    let mut client = Client::connect(&daemon.addr, None).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        client
            .allocation()
            .map_err(|e| format!("allocation: {e}"))?;
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    join_daemon(daemon.watch, None)?;
    Ok(out)
}

/// How `cps replay-online --trace-file` is asked to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReplayMode {
    Inline,
    Sharded(usize),
    Queued(usize),
}

/// One `cps replay-online --trace-file` pass. With shards the command
/// replays inline first, then sharded, and itself fails if the two
/// allocation trajectories differ.
pub fn replay_pass(
    ctx: &Ctx,
    w: &Workload,
    trace: &Path,
    mode: ReplayMode,
) -> Result<Pass, String> {
    let journal = ctx.path("replay.jsonl");
    let mut cmd = ctx.cps();
    cmd.arg("replay-online")
        .arg("--trace-file")
        .arg(trace)
        .args(engine_args(&w.engine))
        .arg("--journal")
        .arg(&journal);
    match mode {
        ReplayMode::Inline => {}
        ReplayMode::Sharded(n) => {
            cmd.args(["--shards", &n.to_string()]);
        }
        ReplayMode::Queued(n) => {
            cmd.args(["--shards", &n.to_string(), "--ingest", "queued"]);
        }
    }
    let usage = Watch::spawn(cmd, &ctx.path("replay"))?.join()?;
    if !usage.success {
        return Err(format!("cps replay-online failed\n{}", usage.output_tail()));
    }
    let mut pass = Pass {
        wall_s: usage.wall_s(),
        sut_cpu_s: usage.cpu_s,
        peak_rss_kb: usage.peak_rss_kb,
        attempted: w.stream.records as u64,
        ..Pass::default()
    };
    if mode != ReplayMode::Inline
        && !usage
            .stdout_text()
            .contains("allocations identical across shard counts")
    {
        pass.violations
            .push("replay-online did not confirm shard identity".to_string());
    }
    check_journal(ctx, &journal, &w.engine, &mut pass)?;
    Ok(pass)
}

/// One `cps tournament` pass; `threads` pins `RAYON_NUM_THREADS`.
pub fn tournament_pass(
    ctx: &Ctx,
    w: &Workload,
    seed: u64,
    threads: Option<usize>,
) -> Result<Pass, String> {
    let Kind::Tournament { programs, .. } = w.kind else {
        return Err(format!("{} is not a tournament workload", w.name));
    };
    let journal = ctx.path("tournament.jsonl");
    let mut cmd = ctx.cps();
    cmd.args(tournament_args(w, programs, seed))
        .arg("--journal")
        .arg(&journal);
    if let Some(n) = threads {
        cmd.env("RAYON_NUM_THREADS", n.to_string());
    }
    let usage = Watch::spawn(cmd, &ctx.path("tournament"))?.join()?;
    if !usage.success {
        return Err(format!("cps tournament failed\n{}", usage.output_tail()));
    }
    let groups = binomial(programs, GROUP_SIZE);
    let mut pass = Pass {
        wall_s: usage.wall_s(),
        sut_cpu_s: usage.cpu_s,
        peak_rss_kb: usage.peak_rss_kb,
        attempted: groups,
        ready_ms: vec![usage.wall_s() * 1e3],
        ..Pass::default()
    };
    let rendered = run_capture(ctx.cps().arg("inspect").arg(&journal))
        .map_err(|e| format!("cps inspect rejected the tournament journal: {e}"))?;
    if !rendered.starts_with("tournament journal OK") {
        pass.violations
            .push("cps inspect did not recognise the tournament journal".to_string());
    }
    let text = std::fs::read_to_string(&journal)
        .map_err(|e| format!("read {}: {e}", journal.display()))?;
    pass.journal_digest = fnv_hex(text.as_bytes());
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = json::parse(line).map_err(|e| format!("tournament journal: {e}"))?;
        let num = |key: &str| v.get(key).and_then(json::Value::as_f64);
        match v.get("kind").and_then(json::Value::as_str) {
            Some("tournament") => pass.accounted = num("groups").unwrap_or(0.0) as u64,
            Some("table") if v.get("versus").and_then(json::Value::as_str) == Some("Equal") => {
                // Optimal's group cost as a share of Equal
                // partitioning's, from the mean gap (opt→equal, % of
                // opt): lower is a better solution.
                let gap = num("mean_gap").ok_or("table row without mean_gap")?;
                pass.solution_cost = 100.0 / (100.0 + gap);
            }
            _ => {}
        }
    }
    if pass.accounted != groups {
        pass.violations.push(format!(
            "tournament swept {} groups, C({programs},{GROUP_SIZE}) = {groups}",
            pass.accounted
        ));
    }
    pass.journal_text = text;
    Ok(pass)
}

fn tournament_args(w: &Workload, programs: usize, seed: u64) -> Vec<String> {
    let mut args: Vec<String> = ["tournament", "--objectives", "miss-ratio"]
        .map(String::from)
        .to_vec();
    for (k, v) in [
        ("--programs", programs),
        ("--group-size", GROUP_SIZE),
        ("--units", TOURNAMENT_UNITS),
        ("--bpu", 1),
        ("--len", w.tournament_len(seed)),
    ] {
        args.push(k.to_string());
        args.push(v.to_string());
    }
    args
}

/// Writes the workload's stream with `cps trace gen` (CPST binary).
pub fn generate_trace(ctx: &Ctx, stream: &Stream, seed: u64, out: &Path) -> Result<(), String> {
    run_capture(
        ctx.cps()
            .args(["trace", "gen", "--workloads", stream.specs])
            .args(["--rates", stream.rates])
            .args(["--len", &stream.records.to_string()])
            .args(["--seed", &seed.to_string(), "--out"])
            .arg(out),
    )
    .map(drop)
}

/// FNV of a file's bytes.
pub fn file_digest(path: &Path) -> Result<String, String> {
    let mut file =
        std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut h = Fnv::new();
    let mut buf = vec![0u8; 1 << 16];
    loop {
        let n = file
            .read(&mut buf)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        if n == 0 {
            return Ok(h.hex());
        }
        h.update(&buf[..n]);
    }
}

/// What set-up produced.
pub struct Setup {
    /// Wall of each repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall of each `cps trace gen`, seconds (empty for tournaments).
    pub gen_s: Vec<f64>,
    pub trace: Option<PathBuf>,
    pub input_digest: String,
}

/// Set-up, repeated (unless `repeat` is off: the traced run reports no
/// `setup_s`) so the run can report a median: make
/// sure the binary is built, generate the seeded trace, and (serve
/// workloads) start a daemon until its port file appears, then shut it
/// down again. The first repetition in a fresh checkout contains the
/// whole build, which is why the median and not the mean is reported.
pub fn set_up(w: &Workload, seed: u64, repeat: bool) -> Result<(Ctx, Setup), String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut gen_s = Vec::new();
    let mut ctx: Option<Ctx> = None;
    let mut trace = None;
    loop {
        let done = setup_s.len();
        let enough = done >= SETUP_REPS
            && (setup_s.iter().sum::<f64>() >= SETUP_MIN_S || done >= SETUP_MAX_REPS);
        if enough || (done == 1 && !repeat) {
            break;
        }
        let started = Instant::now();
        let cps = ensure_cps()?;
        if ctx.is_none() {
            ctx = Some(Ctx::new(cps, w.name)?);
        }
        let ctx = ctx.as_ref().expect("just created");
        if !matches!(w.kind, Kind::Tournament { .. }) {
            let path = ctx.dir.join("trace.cpst");
            let t = Instant::now();
            generate_trace(ctx, &w.stream, seed, &path)?;
            gen_s.push(t.elapsed().as_secs_f64());
            trace = Some(path);
        }
        if matches!(w.kind, Kind::Serve { .. }) {
            let daemon = start_daemon(ctx, &w.engine)?;
            Client::connect(&daemon.addr, None)
                .and_then(Client::shutdown)
                .map_err(|e| format!("set-up daemon: {e}"))?;
            join_daemon(daemon.watch, None)?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let ctx = ctx.expect("set-up ran at least once");
    let input_digest = match (&trace, w.kind) {
        (Some(path), _) => file_digest(path)?,
        (None, Kind::Tournament { programs, .. }) => {
            fnv_hex(tournament_args(w, programs, seed).join(" ").as_bytes())
        }
        (None, _) => unreachable!("streaming workloads generate a trace"),
    };
    Ok((
        ctx,
        Setup {
            setup_s,
            gen_s,
            trace,
            input_digest,
        },
    ))
}

/// Reads a CPST trace back through the traceio front door.
pub fn load_records(path: &Path, tenants: usize) -> Result<Vec<(u64, u64)>, String> {
    let mut source = open_source(path, cps_traceio::TraceFormat::Binary, tenants)?;
    let mut records = Vec::new();
    loop {
        match source.next_record() {
            Ok(Some((t, b))) => records.push((t as u64, b)),
            Ok(None) => return Ok(records),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
}

pub fn open_source(
    path: &Path,
    format: cps_traceio::TraceFormat,
    tenants: usize,
) -> Result<cps_traceio::TraceSource, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    Ok(cps_traceio::TraceSource::from_read(
        Box::new(file),
        format,
        cps_traceio::TenantPolicy::parse("explicit").map_err(|e| e.to_string())?,
        cps_traceio::BlockMap {
            block_bytes: 64,
            set_hash: false,
        },
        tenants,
        cps_traceio::Strictness::Strict,
    ))
}

/// One end-to-end metric the contract names.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Every workload
/// reports every one; README.md says what each means per workload.
///
/// The timing bounds sit at the contract's ceiling because the host
/// does: over ten consecutive runs its speed drifts by 10-25% (CPU time
/// per record moves with it, so it is the machine, not scheduling), and
/// a bound the drift crosses is a false alarm. `solution_cost` is exact
/// for a seed; its bound only covers the spread *between* seeds (3% on
/// `serve-solve`).
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef {
        name: "throughput",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    MetricDef {
        name: "cpu_ns_per_item",
        unit: "ns",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "alloc_ready_ms_p50",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.20,
    },
    MetricDef {
        name: "solution_cost",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.10,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// Everything one untraced run of one workload produced.
pub struct Outcome {
    /// Per-pass samples, one vector per [`END_TO_END`] entry, same order.
    pub samples: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub input_digest: String,
    pub journal_digest: String,
    pub passes: usize,
    /// Pooled allocation-ready samples and the tail percentile they
    /// support (`None` below 40 samples).
    pub ready_samples: usize,
    pub ready_tail: Option<(u32, f64)>,
}

/// Folds passes into an [`Outcome`], enforcing that every pass of the
/// run produced the same canonical journal.
pub struct Tally {
    samples: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    journal_digest: Option<String>,
    ready_pool: Vec<f64>,
    peak_rss_kb: u64,
    passes: usize,
}

/// Indices into [`END_TO_END`].
const THROUGHPUT: usize = 0;
const CPU_NS: usize = 1;
const READY_MS: usize = 2;
const PEAK_RSS: usize = 3;
pub const SOLUTION_COST: usize = 4;
const SETUP_S: usize = 5;

impl Tally {
    pub fn new(setup_s: &[f64]) -> Tally {
        let mut samples = vec![Vec::new(); END_TO_END.len()];
        samples[SETUP_S] = setup_s.to_vec();
        Tally {
            samples,
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            journal_digest: None,
            ready_pool: Vec::new(),
            peak_rss_kb: 0,
            passes: 0,
        }
    }

    /// Books the output checks of a pass and its memory high-water
    /// mark; call once per pass.
    pub fn check(&mut self, pass: &Pass) {
        self.peak_rss_kb = self.peak_rss_kb.max(pass.peak_rss_kb);
        self.attempted += pass.attempted;
        let mut violations = pass.violations.clone();
        match &self.journal_digest {
            None => self.journal_digest = Some(pass.journal_digest.clone()),
            Some(d) if *d != pass.journal_digest => violations.push(format!(
                "canonical journal {} differs from the run's first pass {d}",
                pass.journal_digest
            )),
            Some(_) => {}
        }
        self.failed += pass.failed_items(&violations);
        self.violations.extend(violations);
    }

    /// A free-running pass: throughput, CPU, solution cost.
    pub fn free(&mut self, w: &Workload, pass: &Pass) {
        let items = w.items() as f64;
        self.samples[THROUGHPUT].push(items / pass.wall_s);
        self.samples[CPU_NS].push(pass.sut_cpu_s * 1e9 / items);
        self.samples[SOLUTION_COST].push(pass.solution_cost);
        self.passes += 1;
    }

    /// The pass that carries allocation-ready samples (the closed-loop
    /// pass for serve workloads, the free-running pass itself
    /// otherwise): its median is one `alloc_ready_ms_p50` sample.
    pub fn ready(&mut self, pass: &Pass) {
        self.samples[READY_MS].push(stats::median(&pass.ready_ms));
        self.ready_pool.extend_from_slice(&pass.ready_ms);
    }

    /// `peak_rss_mb` is the one metric that is a maximum, not a median:
    /// how much of a serve daemon's backlog is resident at once depends
    /// on thread timing, so single passes land in one of two modes and
    /// a median over a handful of them flips between the two; the peak
    /// over every pass of the run does not.
    pub fn finish(mut self, input_digest: String) -> Outcome {
        self.samples[PEAK_RSS] = vec![self.peak_rss_kb as f64 / 1024.0];
        let ready_tail = stats::tail_percentile(self.ready_pool.len())
            .map(|p| (p, stats::percentile(&self.ready_pool, p)));
        Outcome {
            samples: self.samples,
            attempted: self.attempted,
            failed: self.failed,
            violations: self.violations,
            input_digest,
            journal_digest: self.journal_digest.unwrap_or_default(),
            passes: self.passes,
            ready_samples: self.ready_pool.len(),
            ready_tail,
        }
    }
}

/// The untraced run of one workload: set-up, then `rounds_for(seconds)`
/// rounds of timed passes with their checks.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let (ctx, setup) = set_up(w, seed, true)?;
    let mut tally = Tally::new(&setup.setup_s);
    let rounds = w.rounds_for(seconds);
    match w.kind {
        Kind::Serve { connections } => {
            let trace = setup
                .trace
                .as_deref()
                .expect("serve workloads have a trace");
            let records = load_records(trace, w.engine.tenants)?;
            for _ in 0..rounds {
                for _ in 0..w.free_per_round {
                    let free = serve_free_pass(&ctx, w, trace, connections, false)?;
                    tally.check(&free);
                    tally.free(w, &free);
                }
                let sync = serve_sync_pass(&ctx, w, &records, connections)?;
                tally.check(&sync);
                tally.ready(&sync);
            }
        }
        Kind::Replay { shards } => {
            let trace = setup
                .trace
                .as_deref()
                .expect("replay workloads have a trace");
            for _ in 0..rounds {
                let pass = replay_pass(&ctx, w, trace, ReplayMode::Sharded(shards))?;
                tally.check(&pass);
                tally.free(w, &pass);
                tally.ready(&pass);
            }
        }
        Kind::Tournament { .. } => {
            for _ in 0..rounds {
                let pass = tournament_pass(&ctx, w, seed, None)?;
                tally.check(&pass);
                tally.free(w, &pass);
                tally.ready(&pass);
            }
        }
    }
    Ok(tally.finish(setup.input_digest))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_are_self_consistent() {
        let all = all();
        assert_eq!(all.len(), 5);
        for w in &all {
            assert_eq!(
                w.stream.records % w.engine.epoch,
                0,
                "{}: streams end on an epoch boundary so no trailing partial epoch exists",
                w.name
            );
            assert_eq!(w.stream.specs.split(',').count(), w.engine.tenants);
            assert_eq!(w.stream.rates.split(',').count(), w.engine.tenants);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert_eq!(w.rounds_for(10), w.rounds);
            assert_eq!(w.rounds_for(1), 1.max((w.rounds + 5) / 10));
        }
        assert_eq!(binomial(16, 4), 1820);
        assert_eq!(binomial(10, 4), 210);
        assert_eq!(all[4].items(), 210);
    }

    #[test]
    fn the_seed_reaches_the_tournament_as_its_trace_length() {
        let w = &all()[4];
        let a = tournament_args(w, 10, 42);
        assert_eq!(a, tournament_args(w, 10, 42));
        assert_ne!(a, tournament_args(w, 10, 7));
        let len = w.tournament_len(42);
        assert!((60_000..61_024).contains(&len));
    }

    /// The plumbing smoke: every workload end to end at 1/100 size.
    /// Same seed, same digests; another seed, another input.
    #[test]
    fn every_workload_runs_end_to_end_at_a_hundredth_of_its_size() {
        for w in all() {
            let small = w.shrunk(100);
            let a = run(&small, 42, 1).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(a.violations.is_empty(), "{}: {:?}", w.name, a.violations);
            assert_eq!(a.failed, 0, "{}", w.name);
            assert!(a.attempted >= small.items(), "{}", w.name);
            for (def, samples) in END_TO_END.iter().zip(&a.samples) {
                assert!(!samples.is_empty(), "{}: no {} samples", w.name, def.name);
                // At this size a pass can cost less than one 10 ms
                // clock tick of CPU; everything else is never zero.
                let floor_ok = |v: f64| v > 0.0 || (def.name == "cpu_ns_per_item" && v == 0.0);
                assert!(
                    samples.iter().all(|v| v.is_finite() && floor_ok(*v)),
                    "{}: {} = {samples:?}",
                    w.name,
                    def.name
                );
            }
            let b = run(&small, 42, 1).unwrap();
            assert_eq!(a.input_digest, b.input_digest, "{}: same seed", w.name);
            assert_eq!(a.journal_digest, b.journal_digest, "{}: same seed", w.name);
            assert_eq!(
                a.samples[SOLUTION_COST], b.samples[SOLUTION_COST],
                "{}: solution cost is exact",
                w.name
            );
            let c = run(&small, 7, 1).unwrap();
            assert_ne!(a.input_digest, c.input_digest, "{}: other seed", w.name);
            assert!(c.violations.is_empty() && c.failed == 0, "{}", w.name);
        }
    }
}
