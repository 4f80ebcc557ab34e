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
//! The stream is sent, not staged: records are read (or drawn), cut
//! into frames and sent in one pass, so the daemon ingests while the
//! client is still reading, and the client holds O(N × batch) records
//! whatever the stream's length. The reference run reads its source
//! again after SHUTDOWN: the file is re-read, the mix re-drawn.
//!
//! `--connections 1` (the default) opens one mux session and streams
//! unsequenced BATCH frames — arrival order is the canonical order.
//! `--connections N` with N >= 2 deals the stream's global positions
//! round-robin across N concurrent sessions, each streaming sequenced
//! BATCH_SEQ frames; the server's sequencing window reassembles the one
//! canonical order, so the identity check is unchanged. With
//! `--kill-resume true`, connection 0 additionally drops its TCP
//! connection halfway through, rejoins with RESUME, and resends from
//! the position the server reports as missing — identity must survive
//! the disconnect.

use crate::common::{
    mix_unless_trace_file, print_source_stats, Args, RecordSource, Records, MIX_FLAGS, TRACE_FLAGS,
};
use cache_partition_sharing::engine::engine_name;
use cache_partition_sharing::obs::{parse_journal_line, JournalLine};
use cache_partition_sharing::prelude::*;
use cache_partition_sharing::serve::{Observer, ObserverEvent, ServeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
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

/// The most sender sessions `--connections` may open: each is a thread
/// and a socket here and a session on the daemon.
const MAX_CONNECTIONS: usize = 256;

/// Dealt frames a sender's hand-off holds before the dealer waits.
const HANDOFF_FRAMES: usize = 4;

/// One sequenced record: `(position, tenant, block)`.
type Seq = (u64, u64, u64);

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
    if connections > MAX_CONNECTIONS {
        return Err(format!(
            "bad --connections: {connections} sessions, at most {MAX_CONNECTIONS}"
        ));
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

    // The canonical stream: either the exact stream replay-online
    // would draw from the same mix flags, or an external trace read
    // through the traceio front door. The served pass and the
    // in-process check each open it afresh, so the identical records
    // drive both and neither keeps them.
    let source = RecordSource::new(&args, mix, || Ok(config.tenants), None)?;
    // Connection 0 of a kill/resume run drops halfway through its
    // share, so that run counts the records first.
    let kill_after = if kill_resume {
        let total = match &source {
            RecordSource::Mix(mix) => mix.len,
            RecordSource::File { .. } => count_records(&mut source.open()?.0)?,
        };
        Some(total.div_ceil(connections) / 2)
    } else {
        None
    };
    let (mut records, format) = source.open()?;
    if let (RecordSource::File { path, .. }, Some(format)) = (&source, format) {
        println!("streaming {path} ({} format) to the daemon", format.name());
    }

    // Telemetry riders: a SUBSCRIBE observer collecting every pushed
    // epoch frame, and an HTTP scraper hammering /metrics — both live
    // from before the first record is read to the end of the run,
    // proving telemetry never perturbs the report. The observer
    // subscribes here, so even a short run cannot finish first.
    let observer_thread = if observe {
        let observer =
            Observer::subscribe(&addr, 50).map_err(|e| format!("observer subscribe: {e}"))?;
        Some(std::thread::spawn(move || observe_run(observer)))
    } else {
        None
    };
    let scrape_stop = Arc::new(AtomicBool::new(false));
    let scraper_thread = scrape.as_ref().map(|taddr| {
        let taddr = taddr.clone();
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || scrape_run(&taddr, &stop))
    });

    let served_start = Instant::now();
    let sent = if connections == 1 {
        stream_batches(&mut client, &mut records, batch)?
    } else {
        // `client` stays a pure control session; N concurrent sender
        // sessions stream the records as sequenced frames, each
        // holding every Nth global position.
        deal_to_senders(&addr, &mut records, connections, batch, kill_after)?
    };
    if let Some(stats) = records.source_stats() {
        print_source_stats(&stats);
    }
    if sent == 0 {
        let path = args.get("trace-file").unwrap_or_default();
        return Err(format!("{path}: no records to stream"));
    }
    // A STATS runs once ingest reaches its session's watermark. One
    // connection's watermark is its stream's end; N senders each ended
    // on a STATS on their own session, and the one holding the last
    // position was answered at the stream's end. Either way this reply
    // counts every record.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let served_elapsed = served_start.elapsed();
    if stats.records != sent {
        return Err(format!(
            "server ingested {} records, sent {sent}",
            stats.records
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

    // The same run, in process, from the server's own configuration,
    // over the source read again.
    let inproc_start = Instant::now();
    let mut engine = Engine::new(config);
    let (mut records, _) = source.open()?;
    records.for_each_block(|block| engine.push_batch(block).map_err(|e| e.to_string()))?;
    let local = engine
        .finish()
        .map_err(|e| format!("in-process run: {e}"))?;
    let inproc_elapsed = inproc_start.elapsed();

    let accesses = sent as f64;
    let rate = |d: Duration| accesses / d.as_secs_f64().max(1e-12) / 1e6;
    println!(
        "\n{:<12} {:>12} {:>14}  ({} batches of <= {batch})",
        "path", "elapsed", "Maccesses/s", stats.batches
    );
    // Records are read while they are sent, so the `served` row spans
    // both, and the `in-process` row reads them again.
    let (served_spans, inproc_spans) = match &source {
        RecordSource::File { .. } => (
            "  (decode + send: first record read -> STATS reply)",
            "  (decode + run)",
        ),
        RecordSource::Mix(_) => (
            "  (draw + send: first record drawn -> STATS reply)",
            "  (draw + run)",
        ),
    };
    println!(
        "{:<12} {:>10.1}ms {:>14.2}{served_spans}",
        "served",
        served_elapsed.as_secs_f64() * 1e3,
        rate(served_elapsed)
    );
    println!(
        "{:<12} {:>10.1}ms {:>14.2}{inproc_spans}",
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

/// The records `records` holds, read through once.
fn count_records(records: &mut Records) -> Result<usize, String> {
    let mut total = 0;
    records.for_each_block(|block| {
        total += block.len();
        Ok(())
    })?;
    Ok(total)
}

/// Streams `records` over one session as unsequenced frames of
/// `batch` records, each sent the moment it fills. Returns the record
/// count.
fn stream_batches(client: &mut Client, records: &mut Records, batch: usize) -> Result<u64, String> {
    let mut frame: Vec<(u64, u64)> = Vec::with_capacity(batch);
    let mut sent = 0u64;
    let mut push = |frame: &mut Vec<(u64, u64)>| {
        sent += frame.len() as u64;
        let pushed = client.push_batch(frame);
        frame.clear();
        pushed.map_err(|e| format!("push batch: {e}"))
    };
    records.for_each_block(|mut block| {
        while !block.is_empty() {
            let take = (batch - frame.len()).min(block.len());
            frame.extend(block[..take].iter().map(|&(t, b)| (t as u64, b)));
            block = &block[take..];
            if frame.len() == batch {
                push(&mut frame)?;
            }
        }
        Ok(())
    })?;
    if !frame.is_empty() {
        push(&mut frame)?;
    }
    Ok(sent)
}

/// Cuts a record stream into sequenced frames: global position `p`
/// goes to connection `p mod N`, and a connection's frame is handed
/// on when it holds `batch` records — the frames
/// `enumerate().skip(j).step_by(N)` cut into `chunks(batch)` would
/// give, without the stream ever being held.
struct Dealer {
    frames: Vec<Vec<Seq>>,
    batch: usize,
    /// The next record's global position.
    pos: u64,
    /// The connection it goes to.
    next: usize,
}

impl Dealer {
    fn new(connections: usize, batch: usize) -> Dealer {
        Dealer {
            frames: (0..connections)
                .map(|_| Vec::with_capacity(batch))
                .collect(),
            batch,
            pos: 0,
            next: 0,
        }
    }

    /// Deals `block`, handing each frame that fills to `full` with its
    /// connection.
    fn deal(
        &mut self,
        block: &[(usize, Block)],
        mut full: impl FnMut(usize, Vec<Seq>) -> Result<(), String>,
    ) -> Result<(), String> {
        for &(t, b) in block {
            let j = self.next;
            let frame = &mut self.frames[j];
            frame.push((self.pos, t as u64, b));
            if frame.len() == self.batch {
                full(j, std::mem::replace(frame, Vec::with_capacity(self.batch)))?;
            }
            self.pos += 1;
            self.next = if j + 1 == self.frames.len() { 0 } else { j + 1 };
        }
        Ok(())
    }

    /// Hands every partly filled frame to `full`, in connection order.
    /// Returns the records dealt.
    fn finish(
        self,
        mut full: impl FnMut(usize, Vec<Seq>) -> Result<(), String>,
    ) -> Result<u64, String> {
        for (j, frame) in self.frames.into_iter().enumerate() {
            if !frame.is_empty() {
                full(j, frame)?;
            }
        }
        Ok(self.pos)
    }
}

/// Streams `records` as N concurrent sequenced sessions: this thread
/// deals, one sender thread per session sends. With `kill_after`,
/// connection 0 drops its socket after that many records and rejoins
/// via RESUME. Returns the record count.
///
/// The dealer cannot wedge, whatever the daemon's window. A frame is
/// handed on once its last position is dealt, and a hand-off is full
/// only while its sender writes a frame older than every one it holds.
/// TCP blocks that write only while the daemon has not read it, so the
/// daemon's first missing position precedes every record the dealer
/// (or a resumed sender re-cutting its frames) still holds. That
/// position sits in a frame a sender already has, on a session the
/// daemon reads: a session is paused only while a tail of it beyond the
/// window is parked, and nothing past its first missing position is.
fn deal_to_senders(
    addr: &str,
    records: &mut Records,
    n: usize,
    batch: usize,
    kill_after: Option<usize>,
) -> Result<u64, String> {
    std::thread::scope(|scope| {
        let (handoffs, senders): (Vec<_>, Vec<_>) = (0..n)
            .map(|j| {
                let (handoff, frames) = sync_channel(HANDOFF_FRAMES);
                let kill_after = kill_after.filter(|_| j == 0);
                let sender = scope.spawn(move || sender(addr, frames, batch, kill_after));
                (handoff, sender)
            })
            .unzip();
        // A refused hand-off means that sender stopped; its join below
        // says why.
        let hand = |j: usize, frame: Vec<Seq>| {
            handoffs[j]
                .send(frame)
                .map_err(|_| format!("sender {j} stopped"))
        };
        let mut dealer = Dealer::new(n, batch);
        let read = records.for_each_block(|block| dealer.deal(block, hand));
        // Even a stream cut short by a read error goes out whole up to
        // the cut, so no sender waits on a position the daemon lacks.
        let dealt = dealer.finish(hand);
        drop(handoffs);
        for (j, sender) in senders.into_iter().enumerate() {
            sender
                .join()
                .map_err(|_| format!("sender {j} panicked"))??;
        }
        read?;
        dealt
    })
}

/// One sender session: sequenced frames, as dealt, over a fresh mux
/// connection. With `kill_after`, the connection is dropped after that
/// many records; the sender then RESUMEs with its token and resends
/// everything at or past the position the server reports as missing,
/// re-cut into frames of `batch` from there. The session ends with a
/// STATS, which the daemon answers once it has ingested every position
/// before the session's watermark.
fn sender(
    addr: &str,
    frames: Receiver<Vec<Seq>>,
    batch: usize,
    kill_after: Option<usize>,
) -> Result<(), String> {
    let mut client = Client::connect(addr, None).map_err(|e| format!("sender connect: {e}"))?;
    let push = |client: &mut Client, frame: &[Seq]| {
        client
            .push_batch_seq(frame)
            .map_err(|e| format!("push sequenced batch: {e}"))
    };
    let barrier = |client: &mut Client| {
        client
            .stats()
            .map(drop)
            .map_err(|e| format!("sender stats: {e}"))
    };
    let Some(kill_after) = kill_after else {
        for frame in frames {
            push(&mut client, &frame)?;
        }
        return barrier(&mut client);
    };
    // Everything sent before the drop is kept: the daemon may not have
    // read it, and only its RESUME_ACK says where to resend from.
    let token = client.token();
    let mut frames = frames.into_iter();
    let mut kept: Vec<Seq> = Vec::with_capacity(kill_after);
    let mut unsent: Vec<Seq> = Vec::new();
    while kept.len() < kill_after {
        let Some(frame) = frames.next() else { break };
        let take = (kill_after - kept.len()).min(frame.len());
        push(&mut client, &frame[..take])?;
        kept.extend_from_slice(&frame[..take]);
        unsent.extend_from_slice(&frame[take..]);
    }
    // Hard-drop the TCP connection mid-stream, then rejoin.
    drop(client);
    let (mut resumed, resume_pos) =
        Client::resume(addr, token).map_err(|e| format!("resume: {e}"))?;
    println!(
        "connection 0 dropped after {} records, resumed at position {resume_pos}",
        kept.len()
    );
    // What the daemon missed, then the rest of the share, cut into
    // frames of `batch` from the resume point.
    let mut queue: Vec<Seq> = kept
        .into_iter()
        .filter(|&(pos, _, _)| pos >= resume_pos)
        .chain(unsent)
        .collect();
    loop {
        let whole = queue.len() - queue.len() % batch;
        for frame in queue[..whole].chunks(batch) {
            push(&mut resumed, frame)?;
        }
        queue.drain(..whole);
        match frames.next() {
            Some(frame) => queue.extend_from_slice(&frame),
            None => break,
        }
    }
    if !queue.is_empty() {
        push(&mut resumed, &queue)?;
    }
    barrier(&mut resumed)
}

/// The SUBSCRIBE rider: a read-only observer that stays attached for
/// the whole run, parses every pushed frame, and counts them. Returns
/// `(epoch_frames, metrics_frames)` once the server tears the stream
/// down after SHUTDOWN.
fn observe_run(mut observer: Observer) -> Result<(usize, usize), String> {
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

#[cfg(test)]
mod tests {
    use super::{Dealer, Seq};

    /// The frames the staged split cut: connection `j` owns positions
    /// `j, j + n, …`, sent in chunks of `batch`.
    fn staged(stream: &[(usize, u64)], n: usize, batch: usize) -> Vec<Vec<Vec<Seq>>> {
        (0..n)
            .map(|j| {
                let mine: Vec<Seq> = stream
                    .iter()
                    .enumerate()
                    .skip(j)
                    .step_by(n)
                    .map(|(pos, &(t, b))| (pos as u64, t as u64, b))
                    .collect();
                mine.chunks(batch).map(<[Seq]>::to_vec).collect()
            })
            .collect()
    }

    /// The frames the dealer hands on, per connection, for `stream` read
    /// in blocks of `block` records.
    fn dealt(stream: &[(usize, u64)], n: usize, batch: usize, block: usize) -> Vec<Vec<Vec<Seq>>> {
        let mut frames = vec![Vec::new(); n];
        let mut dealer = Dealer::new(n, batch);
        for chunk in stream.chunks(block) {
            dealer
                .deal(chunk, |j, frame| {
                    assert_eq!(frame.len(), batch, "only full frames leave mid-stream");
                    frames[j].push(frame);
                    Ok(())
                })
                .unwrap();
        }
        let total = dealer
            .finish(|j, frame| {
                frames[j].push(frame);
                Ok(())
            })
            .unwrap();
        assert_eq!(total, stream.len() as u64);
        frames
    }

    #[test]
    fn dealt_frames_are_the_staged_split() {
        for n in [1, 2, 3, 8] {
            for batch in [1, 7, 1024] {
                // Shorter than n, a tail shorter than batch, and whole
                // rounds of n × batch.
                for len in [0, 1, n - 1, n + 1, 7 * n * 3 + 5, 2 * n * 1024, 3000] {
                    let stream: Vec<(usize, u64)> = (0..len)
                        .map(|i| (i % 3, (i as u64).wrapping_mul(0x9e37_79b9) % 97))
                        .collect();
                    let want = staged(&stream, n, batch);
                    for block in [1, 5, 1024] {
                        assert_eq!(
                            dealt(&stream, n, batch, block),
                            want,
                            "n {n}, batch {batch}, len {len}, block {block}"
                        );
                    }
                }
            }
        }
    }
}
