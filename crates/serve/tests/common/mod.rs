//! Helpers shared by the serve integration-test files: the standard
//! stream, an ephemeral-port server, and the report-identity check.

use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig};
use cps_obs::{MemorySink, MetricsRegistry, RunDigest};
use cps_serve::{Client, ServeConfig, ServeOutcome, Server};
use cps_trace::{interleave_proportional, Trace, WorkloadSpec};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The standard 4-tenant mix, generated exactly as `cps replay-online`
/// does (per-tenant seeds `seed + i + 1`, proportional interleave).
pub fn four_tenant_stream(len: usize, seed: u64) -> Vec<(u64, u64)> {
    let specs = [
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
    ];
    let rates = [1.0, 2.0, 1.0, 1.5];
    let traces: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(len, seed.wrapping_add(i as u64 + 1)))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let co = interleave_proportional(&refs, &rates, len);
    co.tenant_accesses().map(|(t, b)| (t as u64, b)).collect()
}

pub fn config(shards: usize, tenants: usize) -> ServeConfig {
    ServeConfig {
        engine: EngineConfig::new(tenants, CacheConfig::new(32, 4), 2_000).shards(shards),
        max_conns: 8,
        idle_timeout: Duration::from_secs(5),
        window_cap: 1 << 16,
        resume_grace: Duration::from_secs(5),
        telemetry_addr: None,
    }
}

/// Binds a server to an ephemeral loopback port, journaling into
/// memory, and runs it on its own thread. Returns the wire address,
/// the server's metrics registry (readable after [`JoinHandle::join`]),
/// the server handle and the journal the daemon streams.
pub fn start(
    config: ServeConfig,
) -> (
    String,
    Arc<MetricsRegistry>,
    JoinHandle<Result<ServeOutcome, String>>,
    MemorySink,
) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut server =
        Server::bind("127.0.0.1:0", config, Arc::clone(&registry)).expect("bind ephemeral port");
    let journal = MemorySink::default();
    server.set_journal(journal.clone());
    let addr = server.local_addr().expect("local addr").to_string();
    (
        addr,
        registry,
        std::thread::spawn(move || server.run()),
        journal,
    )
}

/// Every Nth global position of the stream, as sequenced records.
pub fn round_robin_slice(stream: &[(u64, u64)], j: usize, n: usize) -> Vec<(u64, u64, u64)> {
    stream
        .iter()
        .enumerate()
        .skip(j)
        .step_by(n)
        .map(|(pos, &(t, b))| (pos as u64, t, b))
        .collect()
}

/// Polls STATS on the control session until the server has ingested
/// exactly `n` records (the sequencing window makes ingest lag frame
/// arrival).
pub fn wait_for_records(control: &mut Client, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.stats().expect("stats");
        if stats.records >= n {
            assert_eq!(stats.records, n, "over-ingested");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "ingest wedged at {} of {n} records",
            stats.records
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Asserts the served run is report-identical to the same engine fed
/// the same stream in process: the journal the daemon streamed has the
/// in-process canonical text, and the SHUTDOWN reply's summary and
/// digest (`run`) are that journal's.
pub fn assert_identical(
    run: &RunDigest,
    served: &MemorySink,
    engine_cfg: EngineConfig,
    stream: &[(u64, u64)],
) {
    let sink = MemorySink::default();
    let mut local = Engine::new(engine_cfg);
    local.set_journal(sink.clone());
    local.run(stream.iter().map(|&(t, b)| (t as usize, b)));
    let local_run = local.finish().expect("a memory sink never fails");
    let parsed = served.journal().expect("served journal parses");
    assert_eq!(
        parsed.canonical(),
        sink.journal()
            .expect("in-process journal parses")
            .canonical(),
        "served and in-process runs must be report-identical"
    );
    assert_eq!(run.summary, parsed.summary, "SHUTDOWN carries the summary");
    assert_eq!(run.digest, parsed.digest(), "SHUTDOWN carries the digest");
    assert_eq!(run.digest, local_run.digest);
}
