//! End-to-end serve/client tests over real loopback sockets: the
//! report-identity guarantee (single-session, multi-connection
//! sequenced, and across a kill/resume), session admission,
//! bound-tenant enforcement, and idle/stall teardown. (Churn hygiene
//! counts process threads, so it runs alone in `churn.rs`.)

mod common;

use common::{
    assert_identical, config, four_tenant_stream, round_robin_slice, start, wait_for_records,
};
use cps_core::CacheConfig;
use cps_engine::{Engine, EngineConfig};
use cps_obs::metrics::SampleValue;
use cps_obs::MetricsRegistry;
use cps_serve::wire::{decode, encode, error_code, Message};
use cps_serve::{Client, ServeConfig, ServeError, ServeOutcome, Server};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[test]
fn served_mux_run_is_report_identical_to_in_process() {
    let cfg = config(1, 4);
    let engine_cfg = cfg.engine.clone();
    let (addr, registry, server, served) = start(cfg);

    let stream = four_tenant_stream(20_000, 42);
    let mut client = Client::connect(&addr, None).expect("connect");
    assert_eq!(
        client.config(),
        &engine_cfg,
        "HELLO_ACK carries the engine config"
    );
    for batch in stream.chunks(1_024) {
        client.push_batch(batch).expect("push");
    }

    // The control plane answers from live engine state mid-stream.
    let alloc = client.allocation().expect("allocation");
    assert_eq!(alloc.len(), 4);
    assert_eq!(alloc.iter().sum::<u64>(), 32, "allocation covers the cache");
    let stats = client.stats().expect("stats");
    assert!(
        stats.epochs >= 1,
        "20k accesses at epoch 2k must complete epochs"
    );
    assert_eq!(stats.records, 20_000);
    assert!(stats.batches > 0);
    assert_eq!(stats.decode_errors, 0);

    let run = client.shutdown().expect("shutdown");
    let outcome = server.join().unwrap().expect("server outcome");
    assert_eq!(
        registry.snapshot().get("cps_serve_records_total"),
        Some(&SampleValue::Counter(20_000))
    );
    assert_eq!(outcome.run, run, "the wire carries the outcome's end");
    assert_eq!(run.summary.accesses, 20_000);
    assert_eq!(outcome.records, 20_000);
    assert_eq!(outcome.connections, 1);

    // The served run is report-identical to the same engine fed the
    // same stream in process.
    assert_identical(&run, &served, engine_cfg, &stream);
}

#[test]
fn admission_refuses_bad_bindings_and_a_full_table() {
    let mut cfg = config(1, 2);
    cfg.max_conns = 1;
    let (addr, _, server, served) = start(cfg);

    // A binding outside the tenant range is refused outright.
    match Client::connect(&addr, Some(7)) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, error_code::BAD_TENANT),
        other => panic!(
            "expected BAD_TENANT refusal, got {other:?}",
            other = other.err()
        ),
    }

    // One admitted session fills the table; the next is refused.
    let keep = Client::connect(&addr, None).expect("first session admitted");
    match Client::connect(&addr, Some(0)) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, error_code::SERVER_FULL),
        other => panic!(
            "expected SERVER_FULL refusal, got {other:?}",
            other = other.err()
        ),
    }

    let run = keep.shutdown().expect("shutdown");
    assert_eq!(run.summary.epochs, 0);
    assert_eq!(served.journal().expect("parses").summary, run.summary);
    server.join().unwrap().expect("server outcome");
}

#[test]
fn bound_sessions_may_not_speak_for_other_tenants() {
    let (addr, _, server, _) = start(config(1, 2));

    let mut bound = Client::connect(&addr, Some(1)).expect("bound session");
    bound.push_batch(&[(1, 10), (0, 11)]).expect("send");
    // The refusal surfaces on the next reply read (or as a closed
    // socket, if the server already tore the session down).
    match bound.stats() {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, error_code::BAD_TENANT),
        Err(ServeError::Wire(_)) => {}
        Ok(_) => panic!("cross-tenant record must terminate the session"),
        Err(other) => panic!("unexpected error {other}"),
    }

    // A well-behaved bound session still works.
    let mut good = Client::connect(&addr, Some(0)).expect("connect");
    good.push_batch(&[(0, 1), (0, 2)]).expect("push");
    let stats = good.stats().expect("stats");
    assert_eq!(stats.records, 2, "the rejected batch was never ingested");
    good.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
}

#[test]
fn idle_sessions_are_torn_down_and_leave_the_server_healthy() {
    let mut cfg = config(1, 2);
    cfg.idle_timeout = Duration::from_millis(150);
    let (addr, _, server, served) = start(cfg);

    let mut idle = Client::connect(&addr, None).expect("connect");
    std::thread::sleep(Duration::from_millis(600));
    match idle.stats() {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, error_code::IDLE_TIMEOUT),
        Err(ServeError::Wire(_)) => {} // already closed under us
        Ok(_) => panic!("idle session must be torn down"),
        Err(other) => panic!("unexpected error {other}"),
    }

    // The server keeps serving fresh sessions afterwards.
    let fresh = Client::connect(&addr, None).expect("fresh session");
    let run = fresh.shutdown().expect("shutdown");
    assert_eq!(served.journal().expect("parses").summary, run.summary);
    server.join().unwrap().expect("server outcome");
}

#[test]
fn external_clocking_round_trips_curves_and_budgets_bit_exactly() {
    // A coordinator-shaped server: the internal epoch clock never
    // fires; every boundary is driven over the wire.
    let mut cfg = config(1, 4);
    cfg.engine = EngineConfig::new(4, CacheConfig::new(32, 4), usize::MAX).hysteresis(1);
    let engine_cfg = cfg.engine.clone();
    let (addr, _, server, served) = start(cfg);

    let stream = four_tenant_stream(8_000, 7);
    let mut client = Client::connect(&addr, None).expect("connect");
    for batch in stream.chunks(1_024) {
        client.push_batch(batch).expect("push");
    }

    let (wire_curves, _profile_nanos) = client
        .cost_curves("miss-ratio", 0x7001)
        .expect("cost curves");
    assert_eq!(wire_curves.len(), 4);

    // The wire transports exactly what an identical in-process engine
    // exports — counts equal, miss-ratio samples bit-for-bit.
    let mut local = Engine::new(engine_cfg);
    local.run(stream.iter().map(|&(t, b)| (t as usize, b)));
    let local_curves = local.export_cost_curves().expect("one shard exports");
    for (wire, local) in wire_curves.iter().zip(&local_curves) {
        assert_eq!(wire.accesses, local.counts.accesses);
        assert_eq!(wire.misses, local.counts.misses);
        let local_bits: Vec<u64> = local
            .curve
            .as_ref()
            .expect("tenant was observed")
            .samples()
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(wire.samples_bits, local_bits, "bit-exact transport");
    }

    // Push a sub-capacity budget down; the node actuates it.
    let (repartitioned, moved, _actuate_nanos) = client
        .apply(&[20, 4, 2, 2], Some(0.25), 0x7001)
        .expect("apply");
    assert!(repartitioned);
    assert!(moved > 0);
    assert_eq!(client.allocation().expect("allocation"), vec![20, 4, 2, 2]);
    assert_eq!(client.stats().expect("stats").epochs, 1);

    // A second apply with no open boundary is a typed protocol error
    // (and ends the session, per the control-plane contract).
    match client.apply(&[8, 8, 8, 8], None, 0) {
        Err(ServeError::Server { code, message }) => {
            assert_eq!(code, error_code::PROTOCOL);
            assert!(message.contains("no epoch boundary open"), "{message}");
        }
        other => panic!("expected typed refusal, got {other:?}"),
    }

    let fresh = Client::connect(&addr, None).expect("reconnect");
    let run = fresh.shutdown().expect("shutdown");
    assert_eq!(run.summary.epochs, 1, "one applied boundary");
    // A budget below capacity is not a partition, so the journal is
    // read line by line, not as a validated whole.
    let text = served.text();
    assert!(text.starts_with("{\"v\":3,\"kind\":\"run\""), "{text}");
    assert!(text.contains("\"alloc\":[8,8,8,8]"), "{text}");
    server.join().unwrap().expect("server outcome");
}

#[test]
fn sharded_engines_refuse_external_clocking_with_a_typed_code() {
    let (addr, _, server, _) = start(config(2, 2));
    let mut client = Client::connect(&addr, None).expect("connect");
    match client.cost_curves("miss-ratio", 0) {
        Err(ServeError::Server { code, message }) => {
            assert_eq!(code, error_code::UNSUPPORTED);
            assert!(message.contains("does not support"), "{message}");
        }
        other => panic!("expected typed refusal, got {other:?}"),
    }
    let fresh = Client::connect(&addr, None).expect("reconnect");
    fresh.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
}

#[test]
fn sequenced_multi_connection_run_is_report_identical() {
    let cfg = config(1, 4);
    let engine_cfg = cfg.engine.clone();
    let (addr, _, server, served) = start(cfg);

    let stream = four_tenant_stream(12_000, 9);
    let n = 3;
    let mut control = Client::connect(&addr, None).expect("control session");
    std::thread::scope(|scope| {
        for j in 0..n {
            let addr = addr.clone();
            let records = round_robin_slice(&stream, j, n);
            scope.spawn(move || {
                let mut sender = Client::connect(&addr, None).expect("sender session");
                for chunk in records.chunks(512) {
                    sender.push_batch_seq(chunk).expect("sequenced push");
                }
            });
        }
    });
    wait_for_records(&mut control, stream.len() as u64);
    let run = control.shutdown().expect("shutdown");
    let outcome = server.join().unwrap().expect("server outcome");
    assert_eq!(outcome.records, stream.len() as u64);
    assert_identical(&run, &served, engine_cfg, &stream);
}

#[test]
fn a_dropped_sequenced_session_resumes_without_losing_identity() {
    let cfg = config(1, 4);
    let engine_cfg = cfg.engine.clone();
    let (addr, _, server, served) = start(cfg);

    let stream = four_tenant_stream(10_000, 21);
    let mut control = Client::connect(&addr, None).expect("control session");
    let half_a = round_robin_slice(&stream, 0, 2);
    let half_b = round_robin_slice(&stream, 1, 2);

    // Session A streams half its records, then its connection dies.
    let mut a = Client::connect(&addr, None).expect("session a");
    let token = a.token();
    let sent = half_a.len() / 2;
    for chunk in half_a[..sent].chunks(256) {
        a.push_batch_seq(chunk).expect("first-half push");
    }
    drop(a);

    // Session B streams concurrently while A is down and resuming.
    let b_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut b = Client::connect(&addr, None).expect("session b");
            for chunk in half_b.chunks(256) {
                b.push_batch_seq(chunk).expect("b push");
            }
        })
    };

    // A rejoins with its token; the server discloses the first
    // position it has not parsed, and A resends from there.
    let (mut resumed, resume_pos) = Client::resume(&addr, token).expect("resume");
    assert!(resume_pos > 0, "some of A's records must have been parsed");
    let rest: Vec<(u64, u64, u64)> = half_a
        .iter()
        .copied()
        .filter(|&(pos, _, _)| pos >= resume_pos)
        .collect();
    assert!(!rest.is_empty(), "A had records left to send");
    for chunk in rest.chunks(256) {
        resumed.push_batch_seq(chunk).expect("resumed push");
    }
    b_handle.join().expect("session b thread");

    // A resume with a bogus token is refused with a typed code.
    match Client::resume(&addr, token ^ 0xdead_beef) {
        Err(ServeError::Server { code, .. }) => assert_eq!(code, error_code::BAD_TOKEN),
        other => panic!("expected BAD_TOKEN, got {other:?}", other = other.err()),
    }

    wait_for_records(&mut control, stream.len() as u64);
    let run = control.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
    assert_identical(&run, &served, engine_cfg, &stream);
}

/// A window smaller than two frames: 2048-record batches into 1500
/// slots, so frames straddle the ring's wrap at ever-changing offsets
/// and the window splits every one, parking the tail and pausing the
/// sender. (The engine is fed as each frame lands, so a frame that
/// fits the window whole would never park.) One unsequenced
/// connection.
#[test]
fn a_window_smaller_than_two_frames_parks_tails_and_stays_identical() {
    let mut cfg = config(1, 4);
    cfg.window_cap = 1_500;
    let engine_cfg = cfg.engine.clone();
    let (addr, registry, server, served) = start(cfg);

    let stream = four_tenant_stream(60_000, 5);
    let mut client = Client::connect(&addr, None).expect("connect");
    for batch in stream.chunks(2_048) {
        client.push_batch(batch).expect("push");
    }
    wait_for_records(&mut client, stream.len() as u64);
    let run = client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
    let metrics = registry.snapshot();
    assert!(
        matches!(metrics.get("cps_serve_window_pauses_total"), Some(SampleValue::Counter(n)) if *n > 0),
        "30 frames through a 1500-slot window must have parked at least one tail"
    );
    assert_eq!(
        metrics.get("cps_serve_dropped_records_total"),
        Some(&SampleValue::Counter(0))
    );
    assert_identical(&run, &served, engine_cfg, &stream);
}

/// The same window under two sequenced connections — every strided
/// 1024-record frame spans 2047 positions, so *each* is split — with
/// one connection killed mid-stream and resumed while its parked tail
/// is still waiting.
#[test]
fn a_small_window_survives_two_strided_senders_and_a_kill_resume() {
    let mut cfg = config(1, 4);
    cfg.window_cap = 1_500;
    let engine_cfg = cfg.engine.clone();
    let (addr, registry, server, served) = start(cfg);

    let stream = four_tenant_stream(24_000, 33);
    let mut control = Client::connect(&addr, None).expect("control session");
    let half_a = round_robin_slice(&stream, 0, 2);
    let half_b = round_robin_slice(&stream, 1, 2);

    let mut a = Client::connect(&addr, None).expect("session a");
    let token = a.token();
    for chunk in half_a[..half_a.len() / 2].chunks(1_024) {
        a.push_batch_seq(chunk).expect("first-half push");
    }
    drop(a);
    let b_handle = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut b = Client::connect(&addr, None).expect("session b");
            for chunk in half_b.chunks(1_024) {
                b.push_batch_seq(chunk).expect("b push");
            }
        })
    };
    let (mut resumed, resume_pos) = Client::resume(&addr, token).expect("resume");
    let rest: Vec<(u64, u64, u64)> = half_a
        .iter()
        .copied()
        .filter(|&(pos, _, _)| pos >= resume_pos)
        .collect();
    for chunk in rest.chunks(1_024) {
        resumed.push_batch_seq(chunk).expect("resumed push");
    }
    b_handle.join().expect("session b thread");

    wait_for_records(&mut control, stream.len() as u64);
    let run = control.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
    let metrics = registry.snapshot();
    // Nothing is ingested before position 0 and 1 are both in, so the
    // first frame of either sender meets an empty 1500-slot window
    // with 2047 positions: split, whatever the thread timing.
    assert!(matches!(
        metrics.get("cps_serve_window_pauses_total"),
        Some(SampleValue::Counter(n)) if *n > 0
    ));
    assert_eq!(
        metrics.get("cps_serve_resumes_total"),
        Some(&SampleValue::Counter(1))
    );
    assert_identical(&run, &served, engine_cfg, &stream);
}

/// Wire-reachable overflow: a record at position `u64::MAX` has no
/// successor for the session's watermark to move to. It is refused
/// with a typed frame before anything is admitted — the daemon used
/// to die on `pos + 1` (debug) or wrap the watermark to 0 (release) —
/// and the daemon keeps serving.
#[test]
fn a_record_at_the_last_position_is_refused_and_the_daemon_lives() {
    let (addr, registry, server, _) = start(config(1, 2));

    let mut hostile = Client::connect(&addr, None).expect("connect");
    hostile
        .push_batch_seq(&[(7, 0, 1), (u64::MAX, 1, 2)])
        .expect("send");
    match hostile.stats() {
        Err(ServeError::Server { code, message }) => {
            assert_eq!(code, error_code::BAD_SEQUENCE, "{message}");
            assert!(message.contains("no successor"), "{message}");
        }
        Err(ServeError::Wire(_)) => {} // already closed under us
        other => panic!("expected a BAD_SEQUENCE refusal, got {other:?}"),
    }

    let mut second = Client::connect(&addr, None).expect("the daemon still accepts");
    second
        .push_batch_seq(&[(0, 0, 5), (1, 1, 6)])
        .expect("push");
    wait_for_records(&mut second, 2);
    second.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
    assert_eq!(
        registry.snapshot().get("cps_serve_dropped_records_total"),
        Some(&SampleValue::Counter(0)),
        "the refused frame placed nothing"
    );
}

/// Data and control frames need a session: BATCH, BATCH_SEQ and STATS
/// sent before HELLO, each on a fresh connection, are refused with a
/// typed PROTOCOL error and the connection closed — and the daemon
/// keeps admitting sessions.
#[test]
fn frames_before_hello_are_refused_with_a_protocol_code() {
    use std::io::{Read, Write};
    let (addr, _, server, _) = start(config(1, 2));
    let early = [
        Message::Batch {
            records: vec![(0, 1), (1, 2)],
        },
        Message::BatchSeq {
            records: vec![(0, 0, 1), (1, 1, 2)],
        },
        Message::Stats,
    ];
    for msg in early {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(&encode(&msg).expect("frame"))
            .expect("send frame");
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes)
            .expect("read until server closes");
        match decode(&bytes).expect("error frame decodes").0 {
            Message::Error { code, message } => {
                assert_eq!(code, error_code::PROTOCOL, "{msg:?}: {message}");
                assert_eq!(message, "expected HELLO first", "{msg:?}");
            }
            other => panic!("{msg:?}: expected a PROTOCOL error, got {other:?}"),
        }
    }
    let fresh = Client::connect(&addr, None).expect("fresh session");
    fresh.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
}

#[test]
fn a_mid_frame_stall_is_closed_with_a_stalled_code() {
    use std::io::{Read, Write};
    let mut cfg = config(1, 2);
    cfg.idle_timeout = Duration::from_millis(150);
    let (addr, _, server, _) = start(cfg);

    // A raw socket: HELLO, then the first bytes of a frame and
    // silence. The server must close this as STALLED, not IDLE.
    let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(&encode(&Message::Hello { binding: None }).expect("hello frame"))
        .expect("send hello");
    let partial = encode(&Message::Batch {
        records: vec![(0, 1), (1, 2)],
    })
    .expect("batch frame");
    raw.write_all(&partial[..partial.len() - 3])
        .expect("send partial frame");

    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes)
        .expect("read until server closes");
    let (hello_ack, consumed) = decode(&bytes).expect("hello ack decodes");
    assert!(matches!(hello_ack, Message::HelloAck { .. }));
    let (error, _) = decode(&bytes[consumed..]).expect("error frame decodes");
    match error {
        Message::Error { code, message } => {
            assert_eq!(code, error_code::STALLED, "{message}");
            assert!(message.contains("stalled"), "{message}");
        }
        other => panic!("expected STALLED error, got {other:?}"),
    }

    // The server keeps serving fresh sessions afterwards.
    let fresh = Client::connect(&addr, None).expect("fresh session");
    fresh.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
}

/// Starts a server with its telemetry listener bound to an ephemeral
/// loopback port; returns the wire address, the telemetry address, and
/// the server handle.
fn start_with_telemetry(
    mut config: ServeConfig,
) -> (String, String, JoinHandle<Result<ServeOutcome, String>>) {
    config.telemetry_addr = Some("127.0.0.1:0".to_string());
    let server = Server::bind("127.0.0.1:0", config, Arc::new(MetricsRegistry::new()))
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let taddr = server.telemetry_addr().expect("telemetry addr").to_string();
    (addr, taddr, std::thread::spawn(move || server.run()))
}

/// One raw HTTP/1.1 request against the telemetry listener; returns
/// the full response text (the endpoint always answers
/// `Connection: close`, so reading to EOF is the whole exchange).
fn http_request(taddr: &str, request: &str) -> String {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(taddr).expect("connect telemetry");
    conn.write_all(request.as_bytes()).expect("write request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn the_metrics_endpoint_speaks_prometheus_text_over_http() {
    let cfg = config(1, 4);
    let (addr, taddr, server) = start_with_telemetry(cfg);

    let stream = four_tenant_stream(6_000, 11);
    let mut client = Client::connect(&addr, None).expect("connect");
    for batch in stream.chunks(1_024) {
        client.push_batch(batch).expect("push");
    }
    wait_for_records(&mut client, stream.len() as u64);

    let ok = http_request(&taddr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    assert!(ok.contains("Content-Type: text/plain"), "{ok}");
    let body = ok.split("\r\n\r\n").nth(1).expect("body");
    assert!(body.contains("# TYPE cps_serve_records_total counter"));
    assert!(
        body.contains("cps_serve_records_total 6000"),
        "scrape reflects live ingest: {body}"
    );
    assert!(body.contains("cps_serve_frame_nanos_count"));

    // A query string is still the scrape; other paths and methods are
    // typed HTTP refusals, and garbage is a 400 — none of them
    // perturb the wire plane.
    let ok = http_request(&taddr, "GET /metrics?x=1 HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"));
    let missing = http_request(&taddr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(missing.starts_with("HTTP/1.1 404 "), "{missing}");
    let bad_method = http_request(&taddr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.1 405 "), "{bad_method}");
    let garbage = http_request(&taddr, "NONSENSE\r\n\r\n");
    assert!(garbage.starts_with("HTTP/1.1 400 "), "{garbage}");

    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.records, 6_000,
        "HTTP traffic never reaches the engine"
    );
    client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
}

#[test]
fn an_observer_attached_mid_run_sees_epochs_without_breaking_identity() {
    use cps_obs::{parse_journal_line, JournalLine};
    use cps_serve::{Observer, ObserverEvent};

    let cfg = config(1, 4);
    let engine_cfg = cfg.engine.clone();
    let header = Engine::new(engine_cfg.clone()).run_header();
    let (addr, _, server, served) = start(cfg);

    let stream = four_tenant_stream(20_000, 7);
    let mut client = Client::connect(&addr, None).expect("connect");
    let half = stream.len() / 2;
    for batch in stream[..half].chunks(1_024) {
        client.push_batch(batch).expect("push first half");
    }
    wait_for_records(&mut client, half as u64);

    // Attach mid-run: the ack carries the run header, and the first
    // metrics frame (the full snapshot) arrives without being asked.
    let mut observer = Observer::subscribe(&addr, 10).expect("subscribe");
    match parse_journal_line(observer.header()).expect("header parses") {
        JournalLine::Header(h) => assert_eq!(h, header),
        other => panic!("subscribe ack was {other:?}"),
    }

    for batch in stream[half..].chunks(1_024) {
        client.push_batch(batch).expect("push second half");
    }
    wait_for_records(&mut client, stream.len() as u64);
    let run = client.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");

    // Teardown flushed the observer's stream before closing it: drain
    // to the clean close and check every pushed frame parses.
    let mut epochs = Vec::new();
    let mut metrics = 0usize;
    loop {
        match observer.next_event(Some(Duration::from_secs(5))) {
            Ok(Some(ObserverEvent::Epoch(line))) => {
                match parse_journal_line(&line).expect("epoch frame parses") {
                    JournalLine::Epoch(e) => epochs.push(e),
                    other => panic!("epoch frame carried {other:?}"),
                }
            }
            Ok(Some(ObserverEvent::Metrics(text))) => {
                // The first frame is the full snapshot; later frames
                // are deltas and only carry lines that changed.
                if metrics == 0 {
                    assert!(text.contains("cps_serve_records_total"), "{text}");
                }
                metrics += 1;
            }
            Ok(None) => break,
            Err(e) => panic!("observer drain: {e}"),
        }
    }
    assert!(
        !epochs.is_empty(),
        "10k accesses at epoch 2k after attach must push epoch frames"
    );
    assert!(metrics >= 1, "the initial full snapshot always arrives");
    for pair in epochs.windows(2) {
        assert_eq!(pair[1].epoch, pair[0].epoch + 1, "no gaps after attach");
    }
    // Each frame is the booked event the journal carries, wall clock
    // included.
    let journal = served.journal().expect("served journal parses");
    for e in &epochs {
        assert_eq!(&journal.epochs[e.epoch], e, "epoch {}", e.epoch);
    }

    // The watched run is still byte-identical to the unwatched one.
    assert_identical(&run, &served, engine_cfg, &stream);
}

/// A journal that stops taking bytes mid-run: the daemon keeps serving,
/// SHUTDOWN is refused with the typed `JOURNAL` code instead of a
/// digest for a record that does not exist, and the server still tears
/// down and reports why.
#[test]
fn a_failing_journal_is_a_typed_shutdown_error() {
    struct Full(usize);
    impl std::io::Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0 = self
                .0
                .checked_sub(1)
                .ok_or(std::io::ErrorKind::StorageFull)?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut server = Server::bind(
        "127.0.0.1:0",
        config(1, 4),
        Arc::new(MetricsRegistry::new()),
    )
    .expect("bind ephemeral port");
    server.set_journal(Full(3));
    let addr = server.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || server.run());

    let stream = four_tenant_stream(20_000, 42);
    let mut client = Client::connect(&addr, None).expect("connect");
    for batch in stream.chunks(1_024) {
        client.push_batch(batch).expect("push");
    }
    assert_eq!(client.stats().expect("stats").epochs, 10, "serving went on");
    match client.shutdown() {
        Err(ServeError::Server { code, message }) => {
            assert_eq!(code, error_code::JOURNAL, "{message}");
            assert!(message.contains("journal"), "{message}");
        }
        other => panic!("expected a JOURNAL refusal, got {other:?}"),
    }
    let err = server
        .join()
        .unwrap()
        .err()
        .expect("no outcome without a journal");
    assert!(err.starts_with("journal:"), "{err}");
}
