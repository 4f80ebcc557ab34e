//! `cps bench-net` — load-generate against a live `cps serve` daemon
//! and cross-validate the served run against an in-process replay.
//!
//! The client learns the server's full engine configuration from
//! HELLO_ACK, draws the *identical* interleaved stream
//! `cps replay-online` would build from the same workloads, rates, and
//! seed (or reads a `--trace-file`), and streams it over the socket in
//! batches. After a SHUTDOWN the server returns the run's summary and
//! canonical digest; bench-net then runs the same engine on the same
//! stream in this process and asserts the two runs are
//! **report-identical** — equal digests of their canonical journals
//! (wall-clock fields excluded), the one `cps inspect` prints for the
//! daemon's `--journal` file. Identity failure is a nonzero exit: the
//! network layer is only correct if it is invisible in the report.
//!
//! `--connections 1` (the default) opens one mux session and streams
//! unsequenced BATCH frames — arrival order is the canonical order.
//! The stream is sent, not staged: each full frame goes out as soon as
//! its records are decoded or drawn, so the daemon ingests while the
//! client is still reading (the N-connection split below needs the
//! whole stream first and still stages it).
//! `--connections N` with N >= 2 splits the stream's global positions
//! round-robin across N concurrent sessions, each streaming sequenced
//! BATCH_SEQ frames; the server's sequencing window reassembles the one
//! canonical order, so the identity check is unchanged. With
//! `--kill-resume true`, connection 0 additionally drops its TCP
//! connection halfway through, rejoins with RESUME, and resends from
//! the position the server reports as missing — identity must survive
//! the disconnect.

use crate::common::{
    mix_unless_trace_file, open_trace_source, parse_trace_opts, print_source_stats, Args, Records,
    MIX_FLAGS, TRACE_FLAGS,
};
use cache_partition_sharing::engine::engine_name;
use cache_partition_sharing::obs::{parse_journal_line, JournalLine};
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::serve::{Observer, ObserverEvent, ServeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every flag this subcommand reads besides [`MIX_FLAGS`].
const FLAGS: &[&str] = &[
    "port",
    "host",
    "batch",
    "connections",
    "kill-resume",
    "observe",
    "scrape",
    "trace-file",
];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS, MIX_FLAGS, TRACE_FLAGS])?;
    let mix = mix_unless_trace_file(&args)?;
    let host = args.get("host").unwrap_or("127.0.0.1");
    let port: u16 = args
        .require("port")?
        .parse()
        .map_err(|_| "bad --port".to_string())?;
    let batch: usize = args.get_parse("batch", 1_024)?;
    if batch == 0 {
        return Err("--batch must carry at least 1 record".into());
    }
    let connections: usize = args.get_parse("connections", 1)?;
    if connections == 0 {
        return Err("--connections must open at least 1 session".into());
    }
    let kill_resume: bool = args.get_parse("kill-resume", false)?;
    if kill_resume && connections < 2 {
        return Err(
            "--kill-resume exercises sequenced sessions; it needs --connections 2 or more".into(),
        );
    }
    let observe: bool = args.get_parse("observe", false)?;
    let scrape = args.get("scrape").map(str::to_string);

    let addr = format!("{host}:{port}");
    let mut client = Client::connect(&addr, None).map_err(|e| format!("connect {addr}: {e}"))?;
    let config = client.config().clone();
    let k = mix.as_ref().map(|mix| mix.specs.len());
    if let Some(k) = k.filter(|&k| k != config.tenants) {
        return Err(format!(
            "server hosts {} tenants but --workloads names {k}; \
             the streams would not line up",
            config.tenants
        ));
    }
    println!(
        "connected to {addr}: {} engine, {} tenants, {} x {}-block units, epoch {}",
        engine_name(config.shards),
        config.tenants,
        config.cache.units,
        config.cache.blocks_per_unit,
        config.epoch_length
    );

    // Telemetry riders: a SUBSCRIBE observer collecting every pushed
    // epoch frame, and an HTTP scraper hammering /metrics — both live
    // from before the first record is read to the end of the run,
    // proving telemetry never perturbs the report.
    let observer_thread = if observe {
        let addr = addr.clone();
        Some(std::thread::spawn(move || observe_run(&addr)))
    } else {
        None
    };
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper_thread = scrape.as_ref().map(|taddr| {
        let taddr = taddr.clone();
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || scrape_run(&taddr, &stop))
    });

    // The canonical stream to serve: either the exact stream
    // replay-online would draw from the same mix flags, or an external
    // trace read through the traceio front door. Either way the
    // identical records drive both the daemon and the in-process
    // check, so the identity assertion is unchanged. `sent` counts the
    // records a single connection already streamed while they were
    // read.
    let mut records = match &mix {
        Some(mix) => mix.records(),
        None => {
            let path = args.require("trace-file")?;
            let opts = parse_trace_opts(&args, config.tenants)?;
            let (source, format) = open_trace_source(path, &opts)?;
            println!("streaming {path} ({} format) to the daemon", format.name());
            Records::file(path, source)
        }
    };
    let served_start = Instant::now();
    let mut stream: Vec<(u64, u64)> = Vec::new();
    let mut sent = 0;
    records.for_each_block(|block| {
        stream.extend(block.iter().map(|&(t, b)| (t as u64, b)));
        // Stream, don't stage: one connection sends each full frame
        // the moment it is read (the same frames `chunks(batch)` cuts),
        // so the daemon works while the rest is read. The records stay
        // for the in-process reference run.
        while connections == 1 && stream.len() - sent >= batch {
            client
                .push_batch(&stream[sent..sent + batch])
                .map_err(|e| format!("push batch: {e}"))?;
            sent += batch;
        }
        Ok(())
    })?;
    if let Some(stats) = records.source_stats() {
        print_source_stats(&stats);
    }
    if stream.is_empty() {
        let path = args.get("trace-file").unwrap_or_default();
        return Err(format!("{path}: no records to stream"));
    }

    let stats = if connections == 1 {
        for chunk in stream[sent..].chunks(batch) {
            client
                .push_batch(chunk)
                .map_err(|e| format!("push batch: {e}"))?;
        }
        client.stats().map_err(|e| format!("stats: {e}"))?
    } else {
        // `client` stays a pure control session; N concurrent sender
        // sessions stream the same records as sequenced frames, each
        // holding every Nth global position.
        run_senders(&addr, &stream, connections, batch, kill_resume)?;
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        loop {
            let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
            if stats.records >= stream.len() as u64 {
                break stats;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "server ingested {} of {} records before the deadline",
                    stats.records,
                    stream.len()
                ));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    };
    let served_elapsed = served_start.elapsed();
    if stats.records != stream.len() as u64 {
        return Err(format!(
            "server ingested {} records, sent {}",
            stats.records,
            stream.len()
        ));
    }
    let served = client.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    // Teardown closes observer streams after flushing their final
    // frames; the scraper is ours to stop.
    scrape_stop.store(true, Ordering::Relaxed);
    if let Some(handle) = observer_thread {
        let (epochs, metrics) = handle
            .join()
            .map_err(|_| "observer thread panicked".to_string())??;
        println!("observer: {epochs} epoch frames, {metrics} metrics frames (all parsed)");
    }
    if let Some(handle) = scraper_thread {
        let scrapes = handle
            .join()
            .map_err(|_| "scraper thread panicked".to_string())??;
        println!("scraper: {scrapes} /metrics scrapes, all 200 OK");
    }

    // The same run, in process, from the server's own configuration.
    let inproc_start = Instant::now();
    let mut engine = Engine::new(config);
    engine.run(stream.iter().map(|&(t, b)| (t as usize, b)));
    let local = engine
        .finish()
        .map_err(|e| format!("in-process run: {e}"))?;
    let inproc_elapsed = inproc_start.elapsed();

    let accesses = stream.len() as f64;
    let rate = |d: std::time::Duration| accesses / d.as_secs_f64().max(1e-12) / 1e6;
    println!(
        "\n{:<12} {:>12} {:>14}  ({} batches of <= {batch})",
        "path", "elapsed", "Maccesses/s", stats.batches
    );
    // Records are read while they are sent, so the `served` row spans
    // both.
    let served_spans = match &mix {
        None => "  (decode + send: first record read -> STATS reply)",
        Some(_) => "  (draw + send: first record drawn -> STATS reply)",
    };
    println!(
        "{:<12} {:>10.1}ms {:>14.2}{served_spans}",
        "served",
        served_elapsed.as_secs_f64() * 1e3,
        rate(served_elapsed)
    );
    println!(
        "{:<12} {:>10.1}ms {:>14.2}",
        "in-process",
        inproc_elapsed.as_secs_f64() * 1e3,
        rate(inproc_elapsed)
    );

    let epochs = served.summary.epochs;
    if served.digest == local.digest {
        println!(
            "report identity: OK ({epochs} epochs match, digest {:016x})",
            served.digest
        );
        Ok(())
    } else {
        Err(format!(
            "report identity FAILED: the served run ({epochs} epochs, digest {:016x}) differs \
             from the in-process run ({} epochs, digest {:016x}) on stable fields; compare \
             the daemon's --journal with `cps inspect --canonical`",
            served.digest, local.summary.epochs, local.digest
        ))
    }
}

/// Streams the global stream as N concurrent sequenced sessions, each
/// owning every Nth position. With `kill_resume`, connection 0 drops
/// its socket halfway through and rejoins via RESUME.
fn run_senders(
    addr: &str,
    stream: &[(u64, u64)],
    n: usize,
    batch: usize,
    kill_resume: bool,
) -> Result<(), String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|j| {
                let addr = addr.to_string();
                let records: Vec<(u64, u64, u64)> = stream
                    .iter()
                    .enumerate()
                    .skip(j)
                    .step_by(n)
                    .map(|(pos, &(t, b))| (pos as u64, t, b))
                    .collect();
                scope.spawn(move || sender(&addr, &records, batch, kill_resume && j == 0))
            })
            .collect();
        for (j, handle) in handles.into_iter().enumerate() {
            handle
                .join()
                .map_err(|_| format!("sender {j} panicked"))??;
        }
        Ok(())
    })
}

/// One sender session: sequenced batches over a fresh mux connection.
/// With `kill`, the connection is dropped after half the records; the
/// sender then RESUMEs with its token and resends everything at or
/// past the position the server reports as missing.
fn sender(addr: &str, records: &[(u64, u64, u64)], batch: usize, kill: bool) -> Result<(), String> {
    let mut client = Client::connect(addr, None).map_err(|e| format!("sender connect: {e}"))?;
    let token = client.token();
    let sent_before_kill = if kill {
        records.len() / 2
    } else {
        records.len()
    };
    for chunk in records[..sent_before_kill].chunks(batch) {
        client
            .push_batch_seq(chunk)
            .map_err(|e| format!("push sequenced batch: {e}"))?;
    }
    if !kill {
        return Ok(());
    }
    // Hard-drop the TCP connection mid-stream, then rejoin.
    drop(client);
    let (mut resumed, resume_pos) =
        Client::resume(addr, token).map_err(|e| format!("resume: {e}"))?;
    println!(
        "connection 0 dropped after {sent_before_kill} records, resumed at position {resume_pos}"
    );
    let rest: Vec<(u64, u64, u64)> = records
        .iter()
        .copied()
        .filter(|&(pos, _, _)| pos >= resume_pos)
        .collect();
    for chunk in rest.chunks(batch) {
        resumed
            .push_batch_seq(chunk)
            .map_err(|e| format!("push resumed batch: {e}"))?;
    }
    Ok(())
}

/// The SUBSCRIBE rider: a read-only observer that stays attached for
/// the whole run, parses every pushed frame, and counts them. Returns
/// `(epoch_frames, metrics_frames)` once the server tears the stream
/// down after SHUTDOWN.
fn observe_run(addr: &str) -> Result<(usize, usize), String> {
    let mut observer =
        Observer::subscribe(addr, 50).map_err(|e| format!("observer subscribe: {e}"))?;
    parse_journal_line(observer.header())
        .map_err(|e| format!("observer header does not parse: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(180);
    let mut epochs = 0usize;
    let mut metrics = 0usize;
    loop {
        match observer.next_event(Some(Duration::from_secs(1))) {
            Ok(Some(ObserverEvent::Epoch(line))) => match parse_journal_line(&line) {
                Ok(JournalLine::Epoch(_)) => epochs += 1,
                Ok(_) => return Err("observer got a non-epoch journal line".into()),
                Err(e) => return Err(format!("observer epoch frame does not parse: {e}")),
            },
            Ok(Some(ObserverEvent::Metrics(_))) => metrics += 1,
            Ok(None) => return Ok((epochs, metrics)),
            Err(e) if matches!(&e, ServeError::Wire(w) if w.is_timeout()) => {
                if Instant::now() >= deadline {
                    return Err("observer never saw the stream close".into());
                }
            }
            Err(e) => return Err(format!("observer: {e}")),
        }
    }
}

/// The HTTP rider: scrapes `http://ADDR/metrics` in a tight loop until
/// told to stop, asserting every response is a 200 with serve counters
/// in the exposition. Returns the scrape count.
fn scrape_run(addr: &str, stop: &AtomicBool) -> Result<usize, String> {
    let mut scrapes = 0usize;
    while !stop.load(Ordering::Relaxed) {
        if let Err(e) = scrape_once(addr) {
            // A scrape can race run teardown: the daemon tears its
            // listeners down the moment SHUTDOWN lands, before this
            // thread is told to stop. Only a failure while the run is
            // still live is real.
            std::thread::sleep(Duration::from_millis(100));
            if stop.load(Ordering::Relaxed) {
                return Ok(scrapes);
            }
            return Err(e);
        }
        scrapes += 1;
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(scrapes)
}

/// One `GET /metrics` exchange, validated end to end.
fn scrape_once(addr: &str) -> Result<(), String> {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).map_err(|e| {
        format!("scrape connect {addr}: {e} (was the daemon started with --telemetry-port?)")
    })?;
    conn.write_all(
        format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| format!("scrape write: {e}"))?;
    let mut response = String::new();
    conn.read_to_string(&mut response)
        .map_err(|e| format!("scrape read: {e}"))?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "scrape got `{}`, wanted 200 OK",
            response.lines().next().unwrap_or("")
        ));
    }
    if !response.contains("cps_serve_records_total") {
        return Err("scrape response is missing the serve counters".into());
    }
    Ok(())
}
