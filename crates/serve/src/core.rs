//! The serving core: every decision the daemon makes — sessions, the
//! sequencing window, control barriers, resume, teardown — with no
//! socket and no clock.
//!
//! **Sans-I/O.** [`Core`] owns the engine, the window, the sessions and
//! each connection's buffers and flags; its driver (the epoll loop in
//! [`crate::server`], or the in-memory one in [`crate::loopback`]) owns
//! the connections.
//! The driver hands it events — a connection [opened](Core::open),
//! [readable](Core::readable), [writable](Core::writable), and the
//! [`tick`](Core::tick) that ends each pass — each stamped with `now`;
//! the core acts through the driver's [`Io`]: a read straight into the
//! free tail of a connection's receive buffer, a write (in the pass
//! that produced the reply), an interest change, a close. The resume
//! nonce is an argument and the latency spans are stopwatches no
//! decision reads, so a fake clock replays any schedule exactly.
//!
//! **Sequencing window.** The engine's determinism contract is that
//! the global access stream has one canonical order. A single
//! connection gets that for free (arrival order, the old BATCH verb).
//! Concurrent connections instead send BATCH_SEQ frames whose records
//! carry explicit global stream positions; the core places them into a
//! bounded reorder ring (`window_cap` slots, position `p` in slot
//! `p % cap` — the crate's `window` module, which admits a frame a run
//! of consecutive positions at a time) and, after each admit, feeds the
//! engine the contiguous filled prefix straight from the ring's slots.
//! Identity with an in-process run holds by construction: the engine
//! sees exactly the stream `0, 1, 2, …`.
//!
//! The tail of a frame that runs beyond the window parks with its
//! session and the session's read interest is dropped — TCP
//! backpressure, counted in `cps_serve_window_pauses_total`. Paused
//! sessions are exempt from the idle timeout (the server itself made
//! them quiet). Before each pass ends the core *settles*: parked tails
//! move into the ring as ingest frees it, their connections read again,
//! and every finished reply is written, until none of that can move (a
//! debug assertion checks the fixpoint at the end of every tick).
//!
//! **Control barrier.** Control verbs (STATS, COST_CURVES, APPLY, …)
//! are queued stamped with the session's *watermark* — the first
//! stream position the session has not yet sent — and execute in FIFO
//! order once ingest has reached it; ingest stops at the front verb's
//! watermark until it has run. A verb therefore observes every record
//! its own connection sent before it, which is exactly the ordering
//! external epoch clocking needs. Replies are written when the pass
//! settles, never from inside a handler.
//!
//! **Resume.** HELLO_ACK discloses a session token. When a sequenced
//! session's TCP connection drops mid-stream, its state (watermark,
//! pending records) detaches and survives for `resume_grace`; a fresh
//! connection may RESUME with the token and is told the watermark to
//! resend from. Report identity survives the disconnect because the
//! ring admits each position exactly once and per-session positions
//! are validated monotone — a resent duplicate is refused, a lost
//! record is re-sent.
//!
//! **Idle vs stall.** A session with no bytes in flight past the idle
//! timeout is closed as idle (`IDLE_TIMEOUT`, counted in
//! `cps_serve_idle_closes_total`). A session that went quiet *mid
//! frame* is a stalled sender, a different failure: it is closed with
//! `STALLED` and counted in `cps_serve_stall_closes_total`.
//!
//! **Send cap.** No peer can make the core buffer without bound: a
//! connection whose unsent output would pass [`SEND_CAP`] — an observer
//! that stopped reading, in practice — is closed with `SLOW_CONSUMER`
//! and counted in `cps_serve_slow_closes_total`, and an HTTP response
//! still unflushed past the idle timeout is dropped with its
//! connection.

use crate::poll::Interest;
use crate::server::{ServeConfig, ServeOutcome};
use crate::window::{Admit, Runs, Window};
use crate::wire::{
    decode_payload, encode, error_code, open_frame, Message, ServeStats, WireCurve, WireError,
    MAX_PAYLOAD, OP_BATCH, OP_BATCH_SEQ,
};
use cps_engine::{Engine, EngineConfig, EngineError};
use cps_obs::{Counter, Gauge, Histogram, MetricsRegistry, RunHeader, Stopwatch};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// What the core asks of its driver, which owns the connections under
/// the tokens it passed to [`Core::open`].
pub(crate) trait Io {
    /// Reads what `conn` has into `buf`; `Ok(0)` means the peer is done.
    fn read(&mut self, conn: u64, buf: &mut [u8]) -> io::Result<usize>;
    /// Writes a prefix of `bytes` to `conn` and returns its length.
    fn write(&mut self, conn: u64, bytes: &[u8]) -> io::Result<usize>;
    /// Sets what `conn` wakes the driver for.
    fn interest(&mut self, conn: u64, interest: Interest);
    /// Shuts `conn` down; the core never names it again.
    fn close(&mut self, conn: u64);
}

/// The server's registered instruments (`cps_serve_*` namespace).
struct ServeMetrics {
    connections: Counter,
    active_sessions: Gauge,
    detached_sessions: Gauge,
    frames: Counter,
    batches: Counter,
    records: Counter,
    decode_errors: Counter,
    rejects: Counter,
    idle_closes: Counter,
    stall_closes: Counter,
    slow_closes: Counter,
    resumes: Counter,
    window_pauses: Counter,
    dropped_records: Counter,
    frame_nanos: Histogram,
    batch_drain_nanos: Histogram,
}

impl ServeMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            connections: registry
                .counter("cps_serve_connections_total", "Client connections accepted"),
            active_sessions: registry.gauge("cps_serve_active_sessions", "Sessions currently open"),
            detached_sessions: registry.gauge(
                "cps_serve_detached_sessions",
                "Dropped sessions awaiting RESUME within the grace window",
            ),
            frames: registry.counter("cps_serve_frames_total", "Frames read from clients"),
            batches: registry.counter("cps_serve_batches_total", "BATCH/BATCH_SEQ frames accepted"),
            records: registry.counter("cps_serve_records_total", "Access records ingested"),
            decode_errors: registry.counter(
                "cps_serve_decode_errors_total",
                "Frames that failed to decode",
            ),
            rejects: registry.counter(
                "cps_serve_rejects_total",
                "Sessions refused at admission (full table, bad tenant, shutdown)",
            ),
            idle_closes: registry.counter(
                "cps_serve_idle_closes_total",
                "Sessions torn down by the idle timeout (quiet between frames)",
            ),
            stall_closes: registry.counter(
                "cps_serve_stall_closes_total",
                "Sessions torn down mid-frame (sender stalled, not idle)",
            ),
            slow_closes: registry.counter(
                "cps_serve_slow_closes_total",
                "Connections torn down for leaving more than the send cap unread",
            ),
            resumes: registry.counter(
                "cps_serve_resumes_total",
                "Dropped sessions rejoined via RESUME",
            ),
            window_pauses: registry.counter(
                "cps_serve_window_pauses_total",
                "Times a session's reads were paused by the sequencing window",
            ),
            dropped_records: registry.counter(
                "cps_serve_dropped_records_total",
                "Records received but never ingested (session discarded or shutdown)",
            ),
            frame_nanos: registry.histogram(
                "cps_serve_frame_nanos",
                "Per-frame decode-and-handle latency on the event loop",
            ),
            batch_drain_nanos: registry.histogram(
                "cps_serve_batch_drain_nanos",
                "Per-drain engine-feed latency on the event loop",
            ),
        }
    }
}

/// A queued control verb.
enum CtrlOp {
    Stats,
    Allocation,
    CostCurves {
        trace: u64,
    },
    Apply {
        target: Vec<usize>,
        predicted: Option<f64>,
        trace: u64,
    },
    Shutdown,
}

/// One queued control request, runnable once ingest reaches `watermark`.
struct CtrlReq {
    session: u64,
    watermark: u64,
    op: CtrlOp,
}

/// A finished control request, written back when the pass settles.
struct Completion {
    session: u64,
    result: Result<Message, (u64, String)>,
}

/// Which ingest dialect the run latched into at its first batch.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// BATCH_SEQ: clients sequence records with explicit positions.
    Sequenced,
    /// BATCH: arrival order is canonical (single-connection use).
    Unsequenced,
}

/// The live-telemetry tap: while an observer is attached, the engine's
/// epoch hook queues each booked epoch's journal line — the one render
/// the journal file also gets — for the core to fan out; `None` while
/// nobody watches, so an unwatched run queues nothing. It is behind a
/// mutex only because an epoch hook must be `Send`; every update (a
/// push, a take, an open or a close) leaves it valid, so a poisoned
/// lock is recovered.
type EventTap = Arc<Mutex<Option<VecDeque<String>>>>;

/// The serving core over the driver `I`: built by [`new`](Self::new),
/// driven by events until [`tick`](Self::tick) hands back the run.
pub(crate) struct Core<I> {
    /// The driver the core acts through.
    pub(crate) io: I,
    header: RunHeader,
    /// The hosted engine's config, as HELLO_ACK discloses it.
    config: EngineConfig,
    /// The hosted engine; SHUTDOWN takes it to finish the run, so
    /// `None` means the server is stopping.
    engine: Option<Engine>,
    /// The reorder ring frames are admitted into; its frontier is the
    /// ingest frontier.
    window: Window,
    /// FIFO control queue; only the front is eligible, once its
    /// watermark is reached.
    ctrl: VecDeque<CtrlReq>,
    /// Control replies not yet written.
    completions: Vec<Completion>,
    tap: EventTap,
    /// The finished run, or why its journal could not be written.
    outcome: Option<Result<ServeOutcome, String>>,
    /// Sessions admitted over the lifetime (HELLO accepted).
    admitted: u64,
    /// Sessions currently attached to a live connection.
    attached: u64,
    metrics: ServeMetrics,
    registry: Arc<MetricsRegistry>,
    conns: HashMap<u64, Conn>,
    sessions: HashMap<u64, SessionState>,
    /// Resume token → session id.
    tokens: HashMap<u64, u64>,
    /// Conn token → SUBSCRIBE observer state.
    observers: HashMap<u64, ObserverState>,
    next_session_id: u64,
    nonce: u64,
    mode: Option<Mode>,
    /// Next position handed to an *unsequenced* BATCH record (arrival
    /// order is the canonical order in that mode).
    assigned: u64,
    /// The batch frame being handled, decoded into reused buffers.
    frame: Runs,
    idle_timeout: Duration,
    resume_grace: Duration,
    max_conns: usize,
    /// Once SHUTDOWN's reply is queued: drain until then, then exit.
    flush_deadline: Option<Duration>,
    /// When the event being handled happened, as its driver stamped it.
    now: Duration,
}

/// What dialect a connection speaks.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum ConnKind {
    /// The wire protocol: HELLO/RESUME then batches and control verbs.
    Wire,
    /// A read-only SUBSCRIBE observer: the server pushes, the peer
    /// only reads. Exempt from the idle sweep (quiet by design).
    Observer,
    /// An HTTP scrape on the telemetry listener: one request, one
    /// response, close.
    Http,
}

/// How much room a socket read is offered.
const READ_CHUNK: usize = 64 * 1024;

/// The most output a connection may leave unsent: room for two of the
/// largest frames.
const SEND_CAP: usize = 2 * MAX_PAYLOAD;

/// A connection's receive buffer: the bytes read and not yet consumed
/// sit in `buf[start..end]`; the rest of `buf` is room for the next
/// read, zeroed once when the buffer grows rather than per read.
#[derive(Default)]
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// The bytes received and not yet consumed.
    fn pending(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Drops `n` bytes from the front.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// One `read` into the free tail, first moving a partial frame to
    /// the front and growing the buffer if less than [`READ_CHUNK`] is
    /// free. Returns what `read` returned.
    fn fill(&mut self, read: impl FnOnce(&mut [u8]) -> io::Result<usize>) -> io::Result<usize> {
        if self.buf.len() - self.end < READ_CHUNK && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// One live connection.
struct Conn {
    kind: ConnKind,
    rbuf: ReadBuf,
    wbuf: Vec<u8>,
    wstart: usize,
    /// The session this connection speaks for, once HELLO/RESUME done.
    session: Option<u64>,
    /// Read interest dropped: the session ran past the window.
    paused: bool,
    close_after_flush: bool,
    last_activity: Duration,
}

/// One admitted session — survives its connection if sequenced.
struct SessionState {
    /// Resume token disclosed in HELLO_ACK.
    token: u64,
    binding: Option<u64>,
    /// Latched by the first BATCH_SEQ frame.
    sequenced: bool,
    /// Records this session has delivered (parsed, not necessarily
    /// ingested yet).
    records: u64,
    /// First global stream position this session has *not* delivered:
    /// sequenced sessions advance it per record, unsequenced sessions
    /// take the global assignment frontier. Control verbs barrier on
    /// it; RESUME_ACK discloses it as the resend point.
    watermark: u64,
    /// The tail of the session's last frame that ran past the window,
    /// waiting for ingest to advance (its connection reads nothing
    /// further until this drains, so there is never a second one).
    pending: Runs,
    /// The token of the attached connection, if any.
    conn: Option<u64>,
    /// When the session lost its connection (detached sessions only).
    detached_at: Option<Duration>,
    /// Control verbs queued, awaiting completion.
    inflight: u32,
}

/// Per-observer fan-out state.
struct ObserverState {
    /// Requested metrics-delta period; `None` = epoch events only.
    interval: Option<Duration>,
    /// When the next metrics delta is due.
    next_at: Duration,
    /// The metrics JSONL lines sent last time — a delta frame carries
    /// only lines that changed since.
    prev: HashSet<String>,
}

impl<I: Io> Core<I> {
    /// Builds the engine; server counters and engine instruments all
    /// register in `registry`, and `nonce` keys the resume tokens.
    pub(crate) fn new(
        io: I,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
        nonce: u64,
    ) -> Self {
        let mut engine = Engine::with_metrics(config.engine.clone(), Some(&registry));
        let tap: EventTap = Arc::default();
        let hook_tap = Arc::clone(&tap);
        engine.set_epoch_hook(Box::new(move |_, line| {
            let mut tap = hook_tap.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(lines) = tap.as_mut() {
                lines.push_back(line.to_string());
            }
        }));
        Core {
            io,
            header: engine.run_header(),
            config: config.engine,
            engine: Some(engine),
            window: Window::new(config.window_cap),
            ctrl: VecDeque::new(),
            completions: Vec::new(),
            tap,
            outcome: None,
            admitted: 0,
            attached: 0,
            metrics: ServeMetrics::register(&registry),
            registry,
            conns: HashMap::new(),
            sessions: HashMap::new(),
            tokens: HashMap::new(),
            observers: HashMap::new(),
            next_session_id: 1,
            nonce,
            mode: None,
            assigned: 0,
            frame: Runs::default(),
            idle_timeout: config.idle_timeout,
            resume_grace: config.resume_grace,
            max_conns: config.max_conns,
            flush_deadline: None,
            now: Duration::ZERO,
        }
    }

    /// Streams the hosted engine's journal into `sink` as its epochs
    /// close (see [`Engine::set_journal`]).
    pub(crate) fn set_journal(&mut self, sink: impl Write + Send + 'static) {
        if let Some(engine) = &mut self.engine {
            engine.set_journal(sink);
        }
    }

    /// The driver accepted connection `token` (registered for reads).
    pub(crate) fn open(&mut self, token: u64, kind: ConnKind, now: Duration) {
        if kind == ConnKind::Wire {
            self.metrics.connections.inc();
        }
        let conn = Conn {
            kind,
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            wstart: 0,
            session: None,
            paused: false,
            close_after_flush: false,
            last_activity: now,
        };
        self.conns.insert(token, conn);
    }

    /// Connection `token` has bytes (or an end) to read.
    pub(crate) fn readable(&mut self, token: u64, now: Duration) {
        self.now = now;
        self.conn_readable(token);
    }

    /// Connection `token` takes writes again.
    pub(crate) fn writable(&mut self, token: u64, now: Duration) {
        self.now = now;
        self.flush_conn(token);
    }

    /// Ends a driver pass: idle, stall and resume-grace expiry, the
    /// settle fixpoint, observer fan-out and due metrics deltas. Once
    /// SHUTDOWN's reply has drained (or two seconds passed), returns
    /// the finished run: the driver stops.
    pub(crate) fn tick(&mut self, now: Duration) -> Option<Result<ServeOutcome, String>> {
        self.now = now;
        self.sweep();
        self.settle();
        self.fan_out_events();
        self.metrics_ticks();
        if let Some(deadline) = self.flush_deadline {
            let flushed = self.conns.values().all(|c| c.wbuf.len() == c.wstart);
            if flushed || now >= deadline {
                // Count what never reached the engine.
                let dropped: u64 = self
                    .sessions
                    .values()
                    .map(|s| s.pending.remaining() as u64)
                    .sum();
                if dropped > 0 {
                    self.metrics.dropped_records.add(dropped);
                }
                let stopped = || Err("server stopped without an outcome".to_string());
                return Some(self.outcome.take().unwrap_or_else(stopped));
            }
        }
        debug_assert!(self.settled(), "the loop would sleep with work it can do");
        None
    }

    /// Runs the core's own work to a fixpoint before the driver sleeps:
    /// parked tails move into the ring as ingest frees it (a resumed
    /// connection may park another), and finished replies are written
    /// (writing one may close a session, whose cancelled verbs can let
    /// ingest run on).
    fn settle(&mut self) {
        loop {
            self.flush_pending();
            if self.completions.is_empty() {
                return;
            }
            self.drain_completions();
        }
    }

    /// The fixpoint [`settle`](Self::settle) reaches: nothing in the
    /// window the engine could take, no parked tail the window would
    /// take, no control verb due, no reply unwritten. Nothing is owed
    /// the engine once it has finished.
    fn settled(&self) -> bool {
        let next = self.window.next();
        self.completions.is_empty()
            && (self.stopping()
                || (!self.window.ready()
                    && self.ctrl.front().is_none_or(|c| c.watermark > next)
                    && self
                        .sessions
                        .values()
                        .all(|s| s.pending.first().is_none_or(|p| !self.window.fits(p)))))
    }

    /// SHUTDOWN has finished the engine.
    fn stopping(&self) -> bool {
        self.engine.is_none()
    }

    fn conn_readable(&mut self, token: u64) {
        // A backpressure pause stops parsing mid-buffer; pick up any
        // complete frames left behind before touching the socket.
        if !self.process_frames(token) {
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.paused || conn.close_after_flush {
            return;
        }
        // One read per readiness event: the poller is level-triggered,
        // so a socket with more to give is reported again at once, and
        // the other connections (senders, observers, scrapes) and the
        // end-of-pass work get their turn in between.
        match conn.rbuf.fill(|tail| self.io.read(token, tail)) {
            Ok(0) => {
                // The peer is done writing, but the read buffer may
                // still hold complete frames; drain them before tearing
                // the connection down. A pause mid-drain leaves the
                // connection for the next unpause, which re-enters here
                // and reads EOF again.
                if self.process_frames(token) {
                    self.close_conn(token, true);
                }
            }
            Ok(_) => {
                conn.last_activity = self.now;
                self.process_frames(token);
            }
            // Not ready after all: the poller reports it again.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => self.close_conn(token, true),
        }
    }

    /// Decodes and handles every complete frame buffered on `token` (or
    /// answers its HTTP request, once whole). Returns false if the
    /// connection went away (or paused) and the caller should stop
    /// reading it.
    fn process_frames(&mut self, token: u64) -> bool {
        if self
            .conns
            .get(&token)
            .is_some_and(|c| c.kind == ConnKind::Http)
        {
            return self.http_request(token);
        }
        loop {
            let conn = match self.conns.get_mut(&token) {
                // A paused session holds a parked frame tail; it takes
                // no further frame until that drains.
                Some(c) if !c.paused => c,
                _ => return false,
            };
            let observer = conn.kind == ConnKind::Observer;
            let binding = conn
                .session
                .and_then(|id| self.sessions.get(&id))
                .and_then(|s| s.binding);
            let (decoded, frame_len) = match decode_frame(
                conn.rbuf.pending(),
                &mut self.frame,
                self.assigned,
                self.config.tenants as u64,
                binding,
            ) {
                Ok(Some(d)) => d,
                // Partial frame: wait for the rest.
                Ok(None) => return true,
                Err(e) => {
                    self.metrics.decode_errors.inc();
                    self.refuse_close(token, error_code::PROTOCOL, &e.to_string());
                    return false;
                }
            };
            conn.rbuf.consume(frame_len);
            self.metrics.frames.inc();
            let clock = Stopwatch::start();
            let alive = match decoded {
                _ if observer => {
                    let why = "observer sessions are read-only";
                    self.refuse_close(token, error_code::PROTOCOL, why);
                    false
                }
                Decoded::Batch(bad) => self.on_batch(token, bad),
                Decoded::BatchSeq(bad) => self.on_batch_seq(token, bad),
                Decoded::Other(msg) => self.handle_message(token, msg),
            };
            self.metrics.frame_nanos.observe(clock.elapsed_nanos());
            // Feed the engine what the frame let into the window and run
            // the verbs now due — timed apart, as engine feeds.
            self.ingest();
            if !alive {
                return false;
            }
            if self
                .conns
                .get(&token)
                .is_none_or(|c| c.paused || c.close_after_flush)
            {
                return false;
            }
        }
    }

    /// Dispatches one decoded frame. Returns false if the connection
    /// was closed.
    fn handle_message(&mut self, token: u64, msg: Message) -> bool {
        match msg {
            Message::Hello { binding } => self.on_hello(token, binding),
            Message::Resume { token: resume } => self.on_resume(token, resume),
            Message::Subscribe {
                metrics_interval_ms,
            } => self.on_subscribe(token, metrics_interval_ms),
            Message::Stats => self.queue_ctrl(token, CtrlOp::Stats),
            Message::Allocation => self.queue_ctrl(token, CtrlOp::Allocation),
            Message::CostCurves { objective, trace } => {
                let ours = self.config.objective.name();
                if objective != ours {
                    let message = format!(
                        "objective mismatch: this node optimizes `{ours}`, request asked for `{objective}`"
                    );
                    self.refuse_close(token, error_code::OBJECTIVE, &message);
                    return false;
                }
                self.queue_ctrl(token, CtrlOp::CostCurves { trace })
            }
            Message::Apply {
                units,
                predicted_bits,
                trace,
            } => {
                let target: Vec<usize> = units.iter().map(|&u| u as usize).collect();
                self.queue_ctrl(
                    token,
                    CtrlOp::Apply {
                        target,
                        predicted: predicted_bits.map(f64::from_bits),
                        trace,
                    },
                )
            }
            Message::Shutdown => self.queue_ctrl(token, CtrlOp::Shutdown),
            // The batch verbs never get here (`process_frames` reads
            // them into `self.frame`); anything else is a
            // server-to-client message, a protocol violation.
            _ => {
                self.refuse_close(token, error_code::PROTOCOL, "unexpected message kind");
                false
            }
        }
    }

    /// Admits a read-only observer: SUBSCRIBE_ACK carries the run's
    /// journal header line, then the server pushes each epoch record
    /// (and, if requested, periodic metrics deltas) until shutdown.
    fn on_subscribe(&mut self, token: u64, metrics_interval_ms: u64) -> bool {
        if !self.opening(token) {
            return false;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.kind = ConnKind::Observer;
        }
        let header = self.header.to_json_line();
        if !self.queue_msg(token, &Message::SubscribeAck { header }) {
            return false;
        }
        let interval =
            (metrics_interval_ms > 0).then(|| Duration::from_millis(metrics_interval_ms));
        let mut state = ObserverState {
            interval,
            next_at: self.now + interval.unwrap_or_default(),
            prev: HashSet::new(),
        };
        if interval.is_some() {
            // The first frame is the full snapshot, immediately — a
            // one-shot consumer (`cps top --once`) need not wait a
            // whole interval.
            let snap = self.registry.snapshot().render_jsonl();
            let text = metrics_delta(&snap, &mut state.prev);
            if !self.queue_msg(token, &Message::MetricsDelta { text }) {
                return false;
            }
        }
        self.observers.insert(token, state);
        self.watch_events();
        true
    }

    /// Opens the event tap while an observer is attached and closes it
    /// (dropping anything queued) once the last one has left.
    fn watch_events(&self) {
        let mut tap = self.tap.lock().unwrap_or_else(PoisonError::into_inner);
        if self.observers.is_empty() {
            *tap = None;
        } else {
            tap.get_or_insert_with(VecDeque::new);
        }
    }

    /// Fans queued epoch-event lines out to every observer.
    fn fan_out_events(&mut self) {
        let lines = (self.tap.lock().unwrap_or_else(PoisonError::into_inner))
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default();
        let targets: Vec<u64> = self.observers.keys().copied().collect();
        for line in lines {
            for &token in &targets {
                self.queue_msg(token, &Message::EpochEventFrame { line: line.clone() });
            }
        }
    }

    /// Sends due metrics-delta frames: only samples whose rendered
    /// line changed since the observer's previous frame.
    fn metrics_ticks(&mut self) {
        let now = self.now;
        let due: Vec<(u64, Duration)> = self
            .observers
            .iter()
            .filter(|(_, s)| now >= s.next_at)
            .filter_map(|(&t, s)| Some((t, s.interval?)))
            .collect();
        if due.is_empty() {
            return;
        }
        let snap = self.registry.snapshot().render_jsonl();
        for (token, interval) in due {
            let Some(state) = self.observers.get_mut(&token) else {
                continue;
            };
            state.next_at = now + interval;
            let text = metrics_delta(&snap, &mut state.prev);
            if !text.is_empty() {
                self.queue_msg(token, &Message::MetricsDelta { text });
            }
        }
    }

    /// Answers an HTTP scrape once its header block is complete and
    /// closes after the flush. Returns whether the connection reads on.
    fn http_request(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get(&token) else {
            return false;
        };
        let request = conn.rbuf.pending();
        let response = if conn.close_after_flush {
            return false;
        } else if request.windows(4).any(|w| w == b"\r\n\r\n") {
            let text = String::from_utf8_lossy(request);
            let mut parts = text.lines().next().unwrap_or_default().split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("GET"), Some(path))
                    if path == "/metrics" || path.starts_with("/metrics?") =>
                {
                    let body = self.registry.snapshot().render_prometheus();
                    http_response(200, "OK", "text/plain; version=0.0.4", &body)
                }
                (Some("GET"), Some(_)) => http_response(
                    404,
                    "Not Found",
                    "text/plain",
                    "this endpoint serves GET /metrics only\n",
                ),
                (Some(_), Some(_)) => http_response(
                    405,
                    "Method Not Allowed",
                    "text/plain",
                    "this endpoint serves GET /metrics only\n",
                ),
                _ => http_response(400, "Bad Request", "text/plain", "malformed request line\n"),
            }
        } else if request.len() > 16 * 1024 {
            http_response(400, "Bad Request", "text/plain", "header block too large\n")
        } else {
            return true;
        };
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.wbuf.extend_from_slice(&response);
            conn.close_after_flush = true;
        }
        self.flush_conn(token);
        false
    }

    /// Whether `token` may open a session (or subscribe): it has none
    /// yet and the server is not stopping. If not, it is refused.
    fn opening(&mut self, token: u64) -> bool {
        if self.conn_session(token).is_some() {
            self.refuse_close(token, error_code::PROTOCOL, "session already open");
            return false;
        }
        if self.stopping() {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
            return false;
        }
        true
    }

    fn on_hello(&mut self, token: u64, binding: Option<u64>) -> bool {
        if !self.opening(token) {
            return false;
        }
        if let Some(t) = binding {
            if t >= self.config.tenants as u64 {
                self.metrics.rejects.inc();
                let message = format!(
                    "tenant {t} out of range (server has {})",
                    self.config.tenants
                );
                self.refuse_close(token, error_code::BAD_TENANT, &message);
                return false;
            }
        }
        if self.sessions.len() >= self.max_conns {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SERVER_FULL, "session table full");
            return false;
        }
        let id = self.next_session_id;
        self.next_session_id += 1;
        let resume_token = cps_obs::splitmix64(self.nonce ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.sessions.insert(
            id,
            SessionState {
                token: resume_token,
                binding,
                sequenced: false,
                records: 0,
                watermark: 0,
                pending: Runs::default(),
                conn: Some(token),
                detached_at: None,
                inflight: 0,
            },
        );
        self.tokens.insert(resume_token, id);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.session = Some(id);
        }
        self.admitted += 1;
        self.attached += 1;
        self.sync_session_gauges();
        self.queue_msg(
            token,
            &Message::HelloAck {
                config: self.config.clone(),
                token: resume_token,
            },
        )
    }

    fn on_resume(&mut self, token: u64, resume_token: u64) -> bool {
        if !self.opening(token) {
            return false;
        }
        let id = match self.tokens.get(&resume_token) {
            Some(&id) => id,
            None => {
                self.metrics.rejects.inc();
                self.refuse_close(
                    token,
                    error_code::BAD_TOKEN,
                    "unknown or expired session token",
                );
                return false;
            }
        };
        // If the session still thinks it has a connection, that one is
        // a zombie (the peer knows better than we do that it died) —
        // steal the session and close the old socket.
        if let Some(old) = self.sessions.get(&id).and_then(|s| s.conn) {
            if let Some(old_conn) = self.conns.get_mut(&old) {
                old_conn.session = None;
            }
            self.close_conn(old, false);
            self.attached -= 1;
        }
        let sess = self.sessions.get_mut(&id).expect("resumed session");
        sess.conn = Some(token);
        sess.detached_at = None;
        let watermark = sess.watermark;
        let paused = sess.pending.remaining() > 0;
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.session = Some(id);
            conn.paused = paused;
        }
        self.attached += 1;
        self.metrics.resumes.inc();
        self.sync_session_gauges();
        let ok = self.queue_msg(
            token,
            &Message::ResumeAck {
                config: self.config.clone(),
                resume_pos: watermark,
            },
        );
        if ok && paused {
            self.update_interest(token);
        }
        ok
    }

    /// Refuses a batch frame that carried a record for `tenant`, which
    /// the session may not speak for.
    fn refuse_tenant(&mut self, token: u64, binding: Option<u64>, tenant: u64) {
        let tenants = self.config.tenants as u64;
        let message = match binding {
            Some(bound) if tenant < tenants => {
                format!("session bound to tenant {bound} sent a record for {tenant}")
            }
            _ => format!("tenant {tenant} out of range (server has {tenants})"),
        };
        self.refuse_close(token, error_code::BAD_TENANT, &message);
    }

    /// The session a BATCH, BATCH_SEQ or control frame on `token` works
    /// in — or `None`, the connection refused and closed: no session
    /// before HELLO, and no new work once the server is stopping.
    fn working_session(&mut self, token: u64) -> Option<u64> {
        let Some(id) = self.conn_session(token) else {
            self.refuse_close(token, error_code::PROTOCOL, "expected HELLO first");
            return None;
        };
        if self.stopping() {
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
            return None;
        }
        Some(id)
    }

    /// Handles the BATCH frame `process_frames` decoded into
    /// `self.frame`; `bad` is the first tenant id in it the session
    /// may not send.
    fn on_batch(&mut self, token: u64, bad: Option<u64>) -> bool {
        let Some(id) = self.working_session(token) else {
            return false;
        };
        if self.mode == Some(Mode::Sequenced) || self.sessions[&id].sequenced {
            self.refuse_close(
                token,
                error_code::BAD_SEQUENCE,
                "this run is sequenced (BATCH_SEQ); BATCH cannot mix with it",
            );
            return false;
        }
        if let Some(tenant) = bad {
            self.refuse_tenant(token, self.sessions[&id].binding, tenant);
            return false;
        }
        self.mode = Some(Mode::Unsequenced);
        // The frame was loaded as one run from `self.assigned`.
        let n = self.frame.remaining() as u64;
        self.assigned += n;
        let placed = self.window.admit_skipping_taken(&mut self.frame);
        let sess = self.sessions.get_mut(&id).expect("batch session");
        if !placed {
            debug_assert_eq!(sess.pending.remaining(), 0, "a paused session sent a frame");
            std::mem::swap(&mut sess.pending, &mut self.frame);
        }
        sess.records += n;
        sess.watermark = self.assigned;
        self.metrics.batches.inc();
        self.pause_if_backlogged(token, id);
        true
    }

    /// Handles the BATCH_SEQ frame `process_frames` decoded into
    /// `self.frame`.
    fn on_batch_seq(&mut self, token: u64, bad: Option<u64>) -> bool {
        let Some(id) = self.working_session(token) else {
            return false;
        };
        if self.mode == Some(Mode::Unsequenced) {
            self.refuse_close(
                token,
                error_code::BAD_SEQUENCE,
                "this run is unsequenced (BATCH); BATCH_SEQ cannot mix with it",
            );
            return false;
        }
        if let Some(tenant) = bad {
            self.refuse_tenant(token, self.sessions[&id].binding, tenant);
            return false;
        }
        // Positions increase strictly within a frame (the codec cannot
        // express anything else), so the frame respects the session's
        // watermark iff its first one does, and the new watermark is
        // the successor of its last one — which `u64::MAX` has not.
        let mut watermark = self.sessions[&id].watermark;
        if let Some(first) = self.frame.first() {
            if first < watermark {
                let message = format!(
                    "position {first} below this session's watermark {watermark} (duplicate or out of order)"
                );
                self.refuse_close(token, error_code::BAD_SEQUENCE, &message);
                return false;
            }
            watermark = match self.frame.end() {
                Some(end) => end,
                None => {
                    let message = format!("position {} has no successor", u64::MAX);
                    self.refuse_close(token, error_code::BAD_SEQUENCE, &message);
                    return false;
                }
            };
        }
        self.mode = Some(Mode::Sequenced);
        let n = self.frame.remaining() as u64;
        let verdict = self.window.admit(&mut self.frame);
        if let Admit::Duplicate(pos) = verdict {
            // What the window placed before the duplicate stays placed.
            let message = format!("position {pos} already ingested or held by another session");
            self.refuse_close(token, error_code::BAD_SEQUENCE, &message);
            return false;
        }
        let sess = self.sessions.get_mut(&id).expect("seq session");
        if verdict == Admit::Beyond {
            debug_assert_eq!(sess.pending.remaining(), 0, "a paused session sent a frame");
            std::mem::swap(&mut sess.pending, &mut self.frame);
        }
        sess.sequenced = true;
        sess.records += n;
        sess.watermark = watermark;
        self.metrics.batches.inc();
        self.pause_if_backlogged(token, id);
        true
    }

    /// Queues a control verb at the session's watermark.
    fn queue_ctrl(&mut self, token: u64, op: CtrlOp) -> bool {
        let Some(id) = self.working_session(token) else {
            return false;
        };
        let watermark = self.sessions[&id].watermark;
        self.ctrl.push_back(CtrlReq {
            session: id,
            watermark,
            op,
        });
        if let Some(sess) = self.sessions.get_mut(&id) {
            sess.inflight += 1;
        }
        true
    }

    /// Feeds the engine the window's contiguous prefix and runs the
    /// control verbs that are due, in FIFO order, until neither can
    /// move. Ingest stops at the front verb's watermark, so the verb
    /// runs exactly there.
    fn ingest(&mut self) {
        while let Some(engine) = self.engine.as_mut() {
            let next = self.window.next();
            let due_at = self.ctrl.front().map(|c| c.watermark);
            if due_at.is_some_and(|w| w <= next) {
                if let Some(req) = self.ctrl.pop_front() {
                    let result = self.run_ctrl(req.op);
                    self.completions.push(Completion {
                        session: req.session,
                        result,
                    });
                }
                continue;
            }
            let room = due_at.map_or(usize::MAX, |w| {
                usize::try_from(w - next).unwrap_or(usize::MAX)
            });
            let clock = Stopwatch::start();
            let moved = self.window.drain(room, |records| {
                engine
                    .push_batch(records)
                    .expect("the event loop checked every tenant")
            });
            if moved == 0 {
                return;
            }
            self.metrics
                .batch_drain_nanos
                .observe(clock.elapsed_nanos());
            self.metrics.records.add(moved as u64);
        }
    }

    /// Executes one control verb against the engine.
    fn run_ctrl(&mut self, op: CtrlOp) -> Result<Message, (u64, String)> {
        let finished = || (error_code::SHUTTING_DOWN, "engine already finished".into());
        match op {
            CtrlOp::Stats => {
                let snap = self.registry.snapshot();
                let counter = |name: &str| -> u64 {
                    match snap.get(name) {
                        Some(cps_obs::metrics::SampleValue::Counter(v)) => *v,
                        _ => 0,
                    }
                };
                Ok(Message::StatsReply {
                    stats: ServeStats {
                        connections: self.admitted,
                        active_sessions: self.attached,
                        frames: counter("cps_serve_frames_total"),
                        batches: counter("cps_serve_batches_total"),
                        records: counter("cps_serve_records_total"),
                        decode_errors: counter("cps_serve_decode_errors_total"),
                        epochs: self.engine.as_ref().map_or(0, |e| e.epochs_completed()) as u64,
                    },
                })
            }
            CtrlOp::Allocation => {
                let eng = self.engine.as_ref().ok_or_else(finished)?;
                Ok(Message::AllocationReply {
                    units: eng.allocation_units().iter().map(|&u| u as u64).collect(),
                })
            }
            CtrlOp::CostCurves { trace } => {
                let _ = trace; // Stamped on the epoch by the paired APPLY.
                let eng = self.engine.as_mut().ok_or_else(finished)?;
                let clock = Stopwatch::start();
                let exported = eng.export_cost_curves().map_err(engine_refusal)?;
                let profile_nanos = clock.elapsed_nanos();
                let curves = exported
                    .iter()
                    .map(|c| WireCurve {
                        accesses: c.counts.accesses,
                        misses: c.counts.misses,
                        samples_bits: c.curve.as_ref().map_or_else(Vec::new, |m| {
                            m.samples().iter().map(|s| s.to_bits()).collect()
                        }),
                    })
                    .collect();
                Ok(Message::CostCurvesReply {
                    curves,
                    profile_nanos,
                })
            }
            CtrlOp::Apply {
                target,
                predicted,
                trace,
            } => {
                let eng = self.engine.as_mut().ok_or_else(finished)?;
                let clock = Stopwatch::start();
                let actuation = eng
                    .apply_allocation(&target, predicted, (trace != 0).then_some(trace))
                    .map_err(engine_refusal)?;
                Ok(Message::ApplyReply {
                    repartitioned: actuation.repartitioned,
                    units_moved: actuation.units_moved as u64,
                    actuate_nanos: clock.elapsed_nanos(),
                })
            }
            CtrlOp::Shutdown => {
                let eng = self.engine.take().ok_or_else(finished)?;
                // Nothing drains after this: what is still in the ring
                // was never ingested.
                let stranded = self.window.clear();
                self.metrics.dropped_records.add(stranded as u64);
                let outcome = eng
                    .finish()
                    .map(|run| ServeOutcome {
                        run,
                        connections: self.admitted,
                        records: self.metrics.records.get(),
                    })
                    .map_err(|e| format!("journal: {e}"));
                let reply = match &outcome {
                    Ok(done) => Ok(Message::ShutdownReply {
                        summary: done.run.summary.to_json_line(),
                        digest: done.run.digest,
                    }),
                    Err(e) => Err((error_code::JOURNAL, e.clone())),
                };
                self.outcome = Some(outcome);
                reply
            }
        }
    }

    /// Moves parked (beyond-window) frame tails into the ring, feeding
    /// the engine as they land, and resumes reading the connections
    /// whose whole backlog went in — until a round moves nothing.
    /// Nothing moves once the engine has finished.
    fn flush_pending(&mut self) {
        while !self.stopping() {
            let mut progressed = false;
            let mut drained: Vec<u64> = Vec::new();
            for (&id, sess) in self.sessions.iter_mut() {
                let parked = sess.pending.remaining();
                if parked == 0 {
                    continue;
                }
                if self.window.admit_skipping_taken(&mut sess.pending) {
                    drained.push(id);
                }
                progressed |= sess.pending.remaining() < parked;
            }
            if !progressed {
                return;
            }
            self.ingest();
            for id in drained {
                if let Some(token) = self.sessions.get(&id).and_then(|s| s.conn) {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        if conn.paused {
                            conn.paused = false;
                            self.update_interest(token);
                            // The socket may have buffered frames while
                            // we were not reading.
                            self.conn_readable(token);
                        }
                    }
                }
            }
        }
    }

    fn pause_if_backlogged(&mut self, token: u64, id: u64) {
        let backlogged = self
            .sessions
            .get(&id)
            .is_some_and(|s| s.pending.remaining() > 0);
        match self.conns.get_mut(&token) {
            Some(conn) if backlogged && !conn.paused => {
                conn.paused = true;
                self.metrics.window_pauses.inc();
                self.update_interest(token);
            }
            _ => {}
        }
    }

    /// Delivers finished control requests back onto their sessions'
    /// connections.
    fn drain_completions(&mut self) {
        for done in std::mem::take(&mut self.completions) {
            if let Some(sess) = self.sessions.get_mut(&done.session) {
                sess.inflight = sess.inflight.saturating_sub(1);
            }
            let conn_token = self.sessions.get(&done.session).and_then(|s| s.conn);
            // A journal that failed to write still finished the engine.
            let shutdown_reply = matches!(
                done.result,
                Ok(Message::ShutdownReply { .. }) | Err((error_code::JOURNAL, _))
            );
            if let Some(token) = conn_token {
                match done.result {
                    Ok(msg) => {
                        self.queue_msg(token, &msg);
                    }
                    Err((code, message)) => {
                        self.refuse_close(token, code, &message);
                    }
                }
            }
            // The reply for a dropped session is simply lost — the
            // client will re-request after RESUME.
            if shutdown_reply {
                self.begin_teardown(done.session);
            }
        }
    }

    /// After SHUTDOWN finished the engine: close every other
    /// connection, stop accepting, and drain the requester's reply.
    fn begin_teardown(&mut self, requester: u64) {
        let keep = self.sessions.get(&requester).and_then(|s| s.conn);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            // Observers drain too: their buffered epoch frames (the
            // run's tail) flush before the socket closes cleanly.
            let observer = self
                .conns
                .get(&token)
                .is_some_and(|c| c.kind == ConnKind::Observer);
            if Some(token) == keep || observer {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_flush = true;
                    self.update_interest(token);
                }
            } else {
                self.close_conn(token, false);
            }
        }
        self.flush_deadline = Some(self.now + Duration::from_secs(2));
    }

    /// Periodic housekeeping: idle/stall closes and resume-grace
    /// expiry.
    fn sweep(&mut self) {
        let (now, idle) = (self.now, self.idle_timeout);
        let mut stalled: Vec<u64> = Vec::new();
        let mut idled: Vec<u64> = Vec::new();
        let mut http_idled: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            // Observers are quiet by design — the server is the only
            // side that talks. HTTP conns that never finish a request,
            // or never read its response, are torn down without a wire
            // error frame.
            if conn.paused || conn.kind == ConnKind::Observer {
                continue;
            }
            let quiet = now.saturating_sub(conn.last_activity) >= idle;
            if conn.kind == ConnKind::Http {
                if quiet {
                    http_idled.push(token);
                }
                continue;
            }
            if conn.close_after_flush {
                continue;
            }
            // A connection waiting on a queued control reply is the
            // server's own latency, not client idleness.
            let session = conn.session.and_then(|id| self.sessions.get(&id));
            if !quiet || session.is_some_and(|s| s.inflight > 0) {
                continue;
            }
            if !conn.rbuf.pending().is_empty() {
                stalled.push(token);
            } else {
                idled.push(token);
            }
        }
        for token in http_idled {
            self.close_conn(token, false);
        }
        for token in stalled {
            self.metrics.stall_closes.inc();
            let message = format!("frame stalled mid-read for {idle:?}, closing");
            self.refuse_close_with(token, error_code::STALLED, &message, true);
        }
        for token in idled {
            self.metrics.idle_closes.inc();
            let message = format!("idle for {idle:?}, closing");
            // Idle teardown is benign but final: the session does not
            // linger for resume.
            self.refuse_close_with(token, error_code::IDLE_TIMEOUT, &message, false);
        }
        // Detached sessions past the grace window are gone for good.
        let grace = self.resume_grace;
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.conn.is_none()
                    && s.detached_at
                        .is_some_and(|at| now.saturating_sub(at) >= grace)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.discard_session(id);
        }
        if !self.sessions.is_empty() || !self.tokens.is_empty() {
            self.sync_session_gauges();
        }
    }

    /// Removes a session permanently: its pending records are dropped
    /// (counted), its queued control verbs are cancelled, its token is
    /// invalidated.
    fn discard_session(&mut self, id: u64) {
        if let Some(sess) = self.sessions.remove(&id) {
            self.tokens.remove(&sess.token);
            if sess.pending.remaining() > 0 {
                self.metrics
                    .dropped_records
                    .add(sess.pending.remaining() as u64);
            }
            if sess.conn.is_some() {
                self.attached -= 1;
            }
            if sess.inflight > 0 {
                self.ctrl.retain(|c| c.session != id);
                // The queue front may have changed; re-evaluate.
                self.ingest();
            }
        }
        self.sync_session_gauges();
    }

    /// Tears down a connection. `may_detach` keeps a sequenced session
    /// with records alive for `resume_grace` (a dropped sender may
    /// come back); everything else dies with its socket.
    fn close_conn(&mut self, token: u64, may_detach: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if self.observers.remove(&token).is_some() {
            self.watch_events();
        }
        self.io.close(token);
        if let Some(id) = conn.session {
            let detachable = may_detach
                && !self.stopping()
                && self.flush_deadline.is_none()
                && self
                    .sessions
                    .get(&id)
                    .is_some_and(|s| s.sequenced && s.records > 0);
            if detachable {
                if let Some(sess) = self.sessions.get_mut(&id) {
                    sess.conn = None;
                    sess.detached_at = Some(self.now);
                }
                self.attached -= 1;
                self.sync_session_gauges();
            } else {
                // Keep attached-count bookkeeping consistent:
                // discard_session decrements only when conn is Some.
                if let Some(sess) = self.sessions.get_mut(&id) {
                    sess.conn = Some(token);
                }
                self.discard_session(id);
            }
        }
    }

    /// Sends a typed Error frame and closes, never detaching (protocol
    /// violations invalidate the session).
    fn refuse_close(&mut self, token: u64, code: u64, message: &str) {
        self.refuse_close_with(token, code, message, false);
    }

    fn refuse_close_with(&mut self, token: u64, code: u64, message: &str, may_detach: bool) {
        let message = message.to_string();
        // Best effort: encode (an Error frame is always small) and
        // write it straight out, ahead of any queued reply; whatever
        // does not fit is lost, the peer is being hung up on anyway.
        if let Ok(frame) = encode(&Message::Error { code, message }) {
            let _ = self.io.write(token, &frame);
        }
        self.close_conn(token, may_detach);
    }

    /// Encodes and queues a reply on a connection. An unframeable
    /// (oversized) reply degrades to a typed Error frame — the
    /// connection survives; one that would take the unsent output past
    /// [`SEND_CAP`] closes it. Returns false if the connection died.
    fn queue_msg(&mut self, token: u64, msg: &Message) -> bool {
        let frame = match encode(msg) {
            Ok(f) => f,
            Err(WireError::PayloadTooLarge(n)) => {
                let fallback = Message::Error {
                    code: error_code::PAYLOAD_TOO_LARGE,
                    message: format!(
                        "reply payload is {n} bytes, over the {MAX_PAYLOAD}-byte frame cap"
                    ),
                };
                match encode(&fallback) {
                    Ok(f) => f,
                    Err(_) => return true,
                }
            }
            Err(_) => return true,
        };
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        if conn.wbuf.len() + frame.len() > SEND_CAP {
            conn.wbuf.drain(..conn.wstart);
            conn.wstart = 0;
            let unsent = conn.wbuf.len();
            if unsent + frame.len() > SEND_CAP {
                self.metrics.slow_closes.inc();
                let message = format!("{unsent} bytes unread, the send cap is {SEND_CAP}");
                self.refuse_close(token, error_code::SLOW_CONSUMER, &message);
                return false;
            }
        }
        conn.wbuf.extend_from_slice(&frame);
        self.flush_conn(token)
    }

    /// Writes as much buffered output as the socket takes; arms write
    /// interest for the rest. Returns false if the connection died.
    fn flush_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut dead = false;
        while conn.wstart < conn.wbuf.len() {
            match self.io.write(token, &conn.wbuf[conn.wstart..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => conn.wstart += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        let mut done = false;
        if !dead && conn.wstart == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wstart = 0;
            done = conn.close_after_flush;
        }
        if dead {
            self.close_conn(token, true);
            return false;
        }
        if done && self.flush_deadline.is_none() {
            self.close_conn(token, false);
            return false;
        }
        self.update_interest(token);
        true
    }

    fn update_interest(&mut self, token: u64) {
        if let Some(conn) = self.conns.get(&token) {
            let interest = Interest {
                read: !conn.paused && !conn.close_after_flush,
                write: conn.wstart < conn.wbuf.len(),
            };
            self.io.interest(token, interest);
        }
    }

    fn conn_session(&self, token: u64) -> Option<u64> {
        self.conns.get(&token).and_then(|c| c.session)
    }

    fn sync_session_gauges(&self) {
        let attached = self.attached;
        self.metrics.active_sessions.set(attached as i64);
        let detached = self.sessions.values().filter(|s| s.conn.is_none()).count();
        self.metrics.detached_sessions.set(detached as i64);
    }
}

/// What a verified frame decoded to. The batch verbs' records sit in
/// the `Runs` handed to [`decode_frame`]; each carries the first
/// tenant id among them that the session may not send.
enum Decoded {
    Batch(Option<u64>),
    BatchSeq(Option<u64>),
    /// Any other verb.
    Other(Message),
}

/// Verifies and decodes the frame at the front of `buf`, returning it
/// with its length — or `None` while `buf` holds only part of one. The
/// batch verbs' records go straight into `frame` (reused across
/// frames; a BATCH as one run from `assigned`), each tenant id checked
/// against the engine's `tenants` and the session's `binding` on the
/// way.
fn decode_frame(
    buf: &[u8],
    frame: &mut Runs,
    assigned: u64,
    tenants: u64,
    binding: Option<u64>,
) -> Result<Option<(Decoded, usize)>, WireError> {
    let (opcode, payload, used) = match open_frame(buf) {
        Err(WireError::Truncated) => return Ok(None),
        opened => opened?,
    };
    let mut bad = None;
    let see_tenant = |t: u64| {
        if (t >= tenants || binding.is_some_and(|b| b != t)) && bad.is_none() {
            bad = Some(t);
        }
    };
    let decoded = match opcode {
        OP_BATCH => {
            frame.load_batch(payload, assigned, see_tenant)?;
            Decoded::Batch(bad)
        }
        OP_BATCH_SEQ => {
            frame.load_batch_seq(payload, see_tenant)?;
            Decoded::BatchSeq(bad)
        }
        _ => Decoded::Other(decode_payload(opcode, payload)?),
    };
    Ok(Some((decoded, used)))
}

/// Maps a refused control-plane operation to its typed wire error. The
/// session ends after any of these — the coordinator's epoch state
/// machine is broken and cannot resync.
fn engine_refusal(e: EngineError) -> (u64, String) {
    let code = match e {
        EngineError::Unsupported { .. } => error_code::UNSUPPORTED,
        EngineError::TenantOutOfRange { .. } => error_code::BAD_TENANT,
        EngineError::BadAllocation { .. } | EngineError::NoOpenEpoch => error_code::PROTOCOL,
    };
    (code, e.to_string())
}

/// The lines of `snapshot_jsonl` that changed since the previous
/// delta, updating `prev` to the current line set. The first call
/// (empty `prev`) returns the full snapshot.
fn metrics_delta(snapshot_jsonl: &str, prev: &mut HashSet<String>) -> String {
    let mut out = String::new();
    let mut next: HashSet<String> = HashSet::new();
    for line in snapshot_jsonl.lines() {
        if !prev.contains(line) {
            out.push_str(line);
            out.push('\n');
        }
        next.insert(line.to_string());
    }
    *prev = next;
    out
}

/// Assembles a minimal HTTP/1.1 response with `Connection: close`.
fn http_response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::{Mem, Peer};
    use crate::wire::decode;
    use cps_core::CacheConfig;
    use cps_obs::MemorySink;
    use cps_trace::rng::Rng;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// The driver's poll tick: the fake clock advances in these steps.
    const STEP: Duration = Duration::from_millis(25);

    fn core(window_cap: usize, idle: Duration, grace: Duration) -> Core<Mem> {
        serving(engine_config(), window_cap, idle, grace)
    }

    fn serving(
        engine: EngineConfig,
        window_cap: usize,
        idle: Duration,
        grace: Duration,
    ) -> Core<Mem> {
        let config = ServeConfig {
            engine,
            max_conns: 8,
            idle_timeout: idle,
            window_cap,
            resume_grace: grace,
            telemetry_addr: None,
        };
        let io = Mem {
            peers: HashMap::new(),
            chunk: usize::MAX,
        };
        Core::new(io, config, Arc::new(MetricsRegistry::new()), 7)
    }

    fn engine_config() -> EngineConfig {
        EngineConfig::new(4, CacheConfig::new(16, 2), 150)
    }

    impl Core<Mem> {
        /// A peer connects as `token` at `now`.
        fn connect(&mut self, token: u64, now: Duration) {
            self.io.peers.insert(token, Peer::default());
            self.open(token, ConnKind::Wire, now);
        }

        /// The peer on `token` sends `bytes` and the core reads them.
        fn send_bytes(&mut self, token: u64, bytes: &[u8], now: Duration) {
            let peer = self.io.peers.get_mut(&token).expect("a connected peer");
            peer.inbox.extend(bytes);
            self.readable(token, now);
        }

        fn send(&mut self, token: u64, msg: &Message, now: Duration) {
            self.send_bytes(token, &encode(msg).expect("encodable"), now);
        }

        /// What the core wrote to `token` since the last call, decoded.
        fn replies(&mut self, token: u64) -> Vec<Message> {
            let peer = self.io.peers.get_mut(&token).expect("a connected peer");
            let out = Vec::from(std::mem::take(&mut peer.outbox));
            let mut at = 0;
            let mut msgs = Vec::new();
            while at < out.len() {
                let (msg, used) = decode(&out[at..]).expect("whole reply frames");
                msgs.push(msg);
                at += used;
            }
            msgs
        }

        /// HELLO on a fresh connection `token`; returns the resume token.
        fn hello(&mut self, token: u64, now: Duration) -> u64 {
            self.connect(token, now);
            self.send(token, &Message::Hello { binding: None }, now);
            match self.replies(token).as_slice() {
                [Message::HelloAck { token, .. }] => *token,
                other => panic!("expected HELLO_ACK, got {} replies", other.len()),
            }
        }

        fn closed(&self, token: u64) -> bool {
            self.io.peers[&token].closed
        }

        /// Ticks every [`STEP`] from `from` up to and including `to`.
        fn tick_through(&mut self, from: Duration, to: Duration) {
            let mut now = from;
            while now <= to {
                assert!(self.tick(now).is_none(), "nobody asked for SHUTDOWN");
                now += STEP;
            }
        }
    }

    fn error_code_of(msgs: &[Message]) -> Option<u64> {
        match msgs.last() {
            Some(Message::Error { code, .. }) => Some(*code),
            _ => None,
        }
    }

    #[test]
    fn a_quiet_session_is_closed_idle_at_exactly_the_timeout() {
        let idle = ms(500);
        let mut core = core(64, idle, ms(5_000));
        core.hello(2, ms(10));
        core.tick_through(ms(10), ms(10) + idle - STEP);
        assert!(!core.closed(2), "closed a tick before the timeout");
        assert!(core.tick(ms(10) + idle - Duration::from_nanos(1)).is_none());
        assert!(!core.closed(2), "closed before the timeout");
        assert!(core.tick(ms(10) + idle).is_none());
        assert!(core.closed(2), "still open at the timeout");
        assert_eq!(
            error_code_of(&core.replies(2)),
            Some(error_code::IDLE_TIMEOUT)
        );
        assert_eq!(core.metrics.idle_closes.get(), 1);
        assert_eq!(core.metrics.stall_closes.get(), 0);
        // Idle teardown is final: nothing lingers for RESUME.
        assert!(core.sessions.is_empty());
    }

    #[test]
    fn a_session_quiet_mid_frame_is_closed_stalled() {
        let idle = ms(500);
        let mut core = core(64, idle, ms(5_000));
        core.hello(2, ms(0));
        let frame = encode(&Message::Batch {
            records: vec![(0, 1), (1, 2), (2, 3)],
        })
        .expect("encodable");
        core.send_bytes(2, &frame[..frame.len() / 2], ms(100));
        core.tick_through(ms(100), ms(100) + idle - STEP);
        assert!(!core.closed(2), "closed before the timeout");
        assert!(core.tick(ms(100) + idle).is_none());
        assert!(core.closed(2));
        assert_eq!(error_code_of(&core.replies(2)), Some(error_code::STALLED));
        assert_eq!(core.metrics.stall_closes.get(), 1);
        assert_eq!(core.metrics.idle_closes.get(), 0);
    }

    #[test]
    fn an_unread_scrape_response_is_dropped_at_the_idle_timeout() {
        let idle = ms(500);
        let mut core = core(64, idle, ms(5_000));
        let stuck = Peer {
            stuck: true,
            ..Peer::default()
        };
        core.io.peers.insert(4, stuck);
        core.open(4, ConnKind::Http, ms(0));
        core.send_bytes(4, b"GET /metrics HTTP/1.1\r\n\r\n", ms(0));
        assert!(core.conns[&4].close_after_flush, "answered");
        core.tick_through(ms(0), idle - STEP);
        assert!(!core.closed(4), "closed before the timeout");
        assert!(core.tick(idle).is_none());
        assert!(core.closed(4), "still holding the response at the timeout");
    }

    /// A sequenced session that sent records and then lost its
    /// connection at `dropped`; returns the core and its resume token.
    fn detached_session(grace: Duration, dropped: Duration) -> (Core<Mem>, u64) {
        let mut core = core(64, ms(60_000), grace);
        let resume = core.hello(2, ms(0));
        let records = vec![(0, 0, 5), (1, 1, 6), (2, 2, 7)];
        core.send(2, &Message::BatchSeq { records }, ms(0));
        core.io.peers.get_mut(&2).expect("peer").eof = true;
        core.readable(2, dropped);
        assert!(core.closed(2));
        assert_eq!(
            core.sessions.values().filter(|s| s.conn.is_none()).count(),
            1
        );
        (core, resume)
    }

    #[test]
    fn resume_is_accepted_a_tick_before_the_grace_and_refused_at_it() {
        let (grace, dropped) = (ms(1_000), ms(40));
        let (mut core, resume) = detached_session(grace, dropped);
        let last = dropped + grace - STEP;
        core.tick_through(dropped, last);
        core.connect(3, last);
        core.send(3, &Message::Resume { token: resume }, last);
        match core.replies(3).as_slice() {
            [Message::ResumeAck { resume_pos, .. }] => assert_eq!(*resume_pos, 3),
            other => panic!("expected RESUME_ACK, got {} replies", other.len()),
        }
        assert_eq!(core.metrics.resumes.get(), 1);

        let (mut core, resume) = detached_session(grace, dropped);
        core.tick_through(dropped, dropped + grace);
        core.connect(3, dropped + grace);
        core.send(3, &Message::Resume { token: resume }, dropped + grace);
        assert_eq!(error_code_of(&core.replies(3)), Some(error_code::BAD_TOKEN));
        assert!(core.closed(3));
        assert_eq!(core.metrics.dropped_records.get(), 0, "all 3 were ingested");
    }

    #[test]
    fn a_metrics_delta_is_sent_only_once_now_reaches_its_due_time() {
        let mut core = core(64, ms(60_000), ms(5_000));
        core.connect(2, ms(0));
        let subscribe = Message::Subscribe {
            metrics_interval_ms: 100,
        };
        core.send(2, &subscribe, ms(0));
        let first = core.replies(2);
        assert!(matches!(first[0], Message::SubscribeAck { .. }));
        assert!(
            matches!(first[1], Message::MetricsDelta { .. }),
            "a snapshot at once"
        );
        // A second connection moves `cps_serve_connections_total`, so
        // the next delta has a line to carry.
        core.connect(3, ms(50));
        assert!(core.tick(ms(99)).is_none());
        assert!(core.replies(2).is_empty(), "a delta before it was due");
        assert!(core.tick(ms(100)).is_none());
        match core.replies(2).as_slice() {
            [Message::MetricsDelta { text }] => {
                assert!(text.contains("cps_serve_connections_total"), "{text}")
            }
            other => panic!("expected one METRICS_DELTA, got {} frames", other.len()),
        }
        assert!(core.tick(ms(150)).is_none());
        assert!(core.replies(2).is_empty(), "the next one is due at 200 ms");
    }

    /// `n` sequenced senders, each dealt every `n`th position of a
    /// seeded stream in frames of 1–8 records, push their bytes through
    /// a 7-slot window in 1–7-byte reads, the next reader drawn from
    /// the seed; the served run must be the in-process run. Returns how
    /// often the window paused a sender.
    fn seeded_schedule_is_report_identical(n: usize, seed: u64) -> u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let stream: Vec<(u64, u64)> = (0..600)
            .map(|_| {
                let tenant = rng.below(4);
                (tenant, rng.below(8 + 24 * tenant))
            })
            .collect();
        let served = MemorySink::default();
        let mut core = core(7, ms(60_000), ms(5_000));
        core.set_journal(served.clone());
        let batch = 1 + rng.below(8) as usize;
        let tokens: Vec<u64> = (0..n as u64).map(|s| s + 2).collect();
        for (s, &token) in tokens.iter().enumerate() {
            core.hello(token, ms(0));
            let dealt: Vec<(u64, u64, u64)> = (stream.iter().enumerate().skip(s).step_by(n))
                .map(|(pos, &(t, b))| (pos as u64, t, b))
                .collect();
            let peer = core.io.peers.get_mut(&token).expect("peer");
            for frame in dealt.chunks(batch) {
                let records = frame.to_vec();
                peer.inbox
                    .extend(encode(&Message::BatchSeq { records }).expect("encodable"));
            }
        }
        for step in 0.. {
            assert!(step < 1_000_000, "seed {seed}: the schedule wedged");
            let ready: Vec<u64> = (tokens.iter().copied())
                .filter(|t| {
                    let peer = &core.io.peers[t];
                    !peer.inbox.is_empty() && peer.interest.is_none_or(|i| i.read)
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            let token = ready[rng.below(ready.len() as u64) as usize];
            core.io.chunk = 1 + rng.below(7) as usize;
            core.readable(token, ms(0));
            assert!(core.tick(ms(0)).is_none());
        }
        assert_eq!(core.window.next(), stream.len() as u64, "seed {seed}");
        core.io.chunk = usize::MAX;
        let what = format!("seed {seed}, {n} senders");
        let pauses = core.metrics.window_pauses.get();
        shut_down_report_identical(core, &served, &stream, &what);
        pauses
    }

    /// Shuts `core` down from session 2, once it has taken all of
    /// `stream` into the engine whose journal went to `served`: the run
    /// it served must be `Engine::run` over `stream`.
    fn shut_down_report_identical(
        mut core: Core<Mem>,
        served: &MemorySink,
        stream: &[(u64, u64)],
        what: &str,
    ) {
        let config = core.config.clone();
        core.send(2, &Message::Shutdown, ms(0));
        let outcome = core.tick(ms(0)).expect("SHUTDOWN's reply drained");
        let served_run = outcome.expect("a memory journal never fails");
        let Some(Message::ShutdownReply { digest, .. }) = core.replies(2).pop() else {
            panic!("{what}: no SHUTDOWN reply");
        };

        let local = MemorySink::default();
        let mut engine = Engine::new(config);
        engine.set_journal(local.clone());
        engine.run(stream.iter().map(|&(t, b)| (t as usize, b)));
        let local_run = engine.finish().expect("a memory journal never fails");
        assert_eq!(served_run.run.digest, local_run.digest, "{what}");
        assert_eq!(digest, local_run.digest);
        assert_eq!(served_run.records, stream.len() as u64);
        let canonical = |sink: &MemorySink| sink.journal().expect("journal parses").canonical();
        assert_eq!(canonical(served), canonical(&local), "{what}");
    }

    #[test]
    fn seeded_byte_schedules_through_a_seven_slot_window_are_report_identical() {
        let mut pauses = 0;
        for seed in 0..32 {
            pauses += seeded_schedule_is_report_identical(2, seed);
            pauses += seeded_schedule_is_report_identical(3, seed);
        }
        assert!(pauses > 100, "the window parked only {pauses} tails");
    }

    #[test]
    fn an_observer_that_stops_reading_is_closed_at_the_send_cap() {
        // The observer's peer takes no byte, while each millisecond of
        // the fake clock brings eight records, an epoch, and a frame of
        // each kind for the observer: an epoch record and a metrics
        // delta.
        let engine = EngineConfig::new(4, CacheConfig::new(16, 2), 8);
        let served = MemorySink::default();
        let mut core = serving(engine, 64, ms(60_000), ms(5_000));
        core.set_journal(served.clone());
        core.hello(2, ms(0));
        core.connect(3, ms(0));
        core.io.peers.get_mut(&3).expect("peer").stuck = true;
        let subscribe = Message::Subscribe {
            metrics_interval_ms: 1,
        };
        core.send(3, &subscribe, ms(0));
        let mut rng = Rng::seed_from_u64(11);
        let mut stream = Vec::new();
        let (mut now, mut peak, mut after_close) = (ms(0), 0, 0);
        while after_close < 100 {
            now += ms(1);
            let records: Vec<(u64, u64)> = (0..8).map(|_| (rng.below(4), rng.below(40))).collect();
            stream.extend(&records);
            core.send(2, &Message::Batch { records }, now);
            assert!(core.tick(now).is_none());
            match core.conns.get(&3) {
                Some(conn) => {
                    assert!(conn.wbuf.len() <= SEND_CAP, "the cap held");
                    peak = conn.wbuf.len();
                }
                None => after_close += 1,
            }
        }
        assert!(core.closed(3));
        assert!(core.io.peers[&3].outbox.is_empty(), "the peer took nothing");
        assert_eq!(core.metrics.slow_closes.get(), 1);
        assert!(
            SEND_CAP - peak < 64 << 10,
            "closed {} bytes early",
            SEND_CAP - peak
        );
        assert!(core.observers.is_empty());
        assert!(core.tap.lock().expect("tap").is_none(), "nobody watches");
        shut_down_report_identical(core, &served, &stream, "stuck observer");
    }
}
