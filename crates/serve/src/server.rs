//! The TCP daemon: one thread — a readiness event loop that owns every
//! socket, the sequencing window and the engine.
//!
//! **One thread.** The caller of [`Server::run`] is the whole daemon,
//! however many clients connect: it owns the listener and every
//! session socket behind the crate's zero-dep poller, and the
//! [`Engine`] outright. Each frame is decoded, admitted and fed to the
//! engine on that thread, so nothing crosses a thread and nothing is
//! locked or woken. Thousands of idle sessions cost file descriptors,
//! not stacks.
//!
//! **Sequencing window.** The engine's determinism contract is that
//! the global access stream has one canonical order. A single
//! connection gets that for free (arrival order, the old BATCH verb).
//! Concurrent connections instead send BATCH_SEQ frames whose records
//! carry explicit global stream positions; the loop places them into a
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
//! them quiet). Before the loop sleeps it *settles*: parked tails move
//! into the ring as ingest frees it, their connections read again, and
//! every finished reply is written, until none of that can move (a
//! debug assertion checks the fixpoint before every wait).
//!
//! **Control barrier.** Control verbs (STATS, COST_CURVES, APPLY, …)
//! are queued stamped with the session's *watermark* — the first
//! stream position the session has not yet sent — and execute in FIFO
//! order once ingest has reached it; ingest stops at the front verb's
//! watermark until it has run. A verb therefore observes every record
//! its own connection sent before it, which is exactly the ordering
//! the old mutex serialization gave external epoch clocking. Replies
//! are written at the end of the loop pass, never from inside a
//! handler.
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

use crate::poll::{Event, Interest, Poller};
use crate::window::{Admit, Runs, Window};
use crate::wire::{
    decode_payload, encode, error_code, open_frame, Message, ServeStats, WireCurve, WireError,
    MAX_PAYLOAD, OP_BATCH, OP_BATCH_SEQ,
};
use cps_engine::{Engine, EngineConfig, EngineError};
use cps_obs::{Counter, Gauge, Histogram, MetricsRegistry, RunDigest, RunHeader};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Everything `cps serve` decides before binding the socket.
pub struct ServeConfig {
    /// The engine the server hosts; HELLO_ACK discloses it as is.
    pub engine: EngineConfig,
    /// Session-table capacity; further connections are refused with
    /// `SERVER_FULL`.
    pub max_conns: usize,
    /// Idle-session teardown threshold.
    pub idle_timeout: Duration,
    /// Sequencing-window capacity in records: how far ahead of the
    /// contiguous ingest frontier a BATCH_SEQ position may run before
    /// its connection is paused.
    pub window_cap: usize,
    /// How long a dropped sequenced session's state survives awaiting
    /// RESUME before it is discarded.
    pub resume_grace: Duration,
    /// Where the HTTP `/metrics` scrape endpoint listens (e.g.
    /// `127.0.0.1:0` for an ephemeral port), or `None` for no HTTP
    /// telemetry listener.
    pub telemetry_addr: Option<String>,
}

/// What a finished server hands back to its caller.
pub struct ServeOutcome {
    /// How the engine's journal ended: its summary and canonical
    /// digest, as the SHUTDOWN reply carried them over the wire.
    pub run: RunDigest,
    /// Sessions admitted over the server's lifetime.
    pub connections: u64,
    /// Access records ingested.
    pub records: u64,
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

/// A finished control request, written back at the end of the pass.
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
/// the journal file also gets — for the loop to fan out; `None` while
/// nobody watches, so an unwatched run queues nothing. It is behind a
/// mutex only because an epoch hook must be `Send`; every update (a
/// push, a take, an open or a close) leaves it valid, so a poisoned
/// lock is recovered.
type EventTap = Arc<Mutex<Option<VecDeque<String>>>>;

/// The daemon: bound by [`bind`](Self::bind), run to SHUTDOWN by
/// [`run`](Self::run) on the caller's thread.
pub struct Server {
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
    poller: Poller,
    listener: TcpListener,
    telemetry: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    sessions: HashMap<u64, SessionState>,
    /// Resume token → session id.
    tokens: HashMap<u64, u64>,
    /// Conn token → SUBSCRIBE observer state.
    observers: HashMap<u64, ObserverState>,
    next_conn_token: u64,
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
    flush_deadline: Option<Instant>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// builds the engine. Server counters and engine instruments all
    /// register in `registry`.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        poller
            .register(&listener, TOKEN_LISTENER, Interest::READ)
            .map_err(|e| format!("register listener: {e}"))?;
        let telemetry = match &config.telemetry_addr {
            Some(t) => {
                let tl = TcpListener::bind(t).map_err(|e| format!("telemetry bind {t}: {e}"))?;
                tl.set_nonblocking(true)
                    .map_err(|e| format!("telemetry nonblocking: {e}"))?;
                poller
                    .register(&tl, TOKEN_TELEMETRY, Interest::READ)
                    .map_err(|e| format!("register telemetry: {e}"))?;
                Some(tl)
            }
            None => None,
        };
        let mut engine = Engine::with_metrics(config.engine.clone(), Some(&registry));
        let tap: EventTap = Arc::default();
        let hook_tap = Arc::clone(&tap);
        engine.set_epoch_hook(Box::new(move |_, line| {
            let mut tap = hook_tap.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(lines) = tap.as_mut() {
                lines.push_back(line.to_string());
            }
        }));
        Ok(Server {
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
            poller,
            listener,
            telemetry,
            conns: HashMap::new(),
            sessions: HashMap::new(),
            tokens: HashMap::new(),
            observers: HashMap::new(),
            next_conn_token: TOKEN_FIRST_CONN,
            next_session_id: 1,
            nonce: cps_obs::nonce(),
            mode: None,
            assigned: 0,
            frame: Runs::default(),
            idle_timeout: config.idle_timeout,
            resume_grace: config.resume_grace,
            max_conns: config.max_conns,
            flush_deadline: None,
        })
    }

    /// Streams the hosted engine's journal into `sink` as its epochs
    /// close (see [`Engine::set_journal`]). Call before [`run`](Self::run).
    pub fn set_journal(&mut self, sink: impl Write + Send + 'static) {
        if let Some(engine) = &mut self.engine {
            engine.set_journal(sink);
        }
    }

    /// The address the listener actually bound (resolves `--port auto`).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))
    }

    /// The address the HTTP `/metrics` listener bound, if one was
    /// configured (resolves `--telemetry-port auto`).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until a client issues SHUTDOWN, then returns the
    /// finished run once its reply has been flushed.
    pub fn run(mut self) -> Result<ServeOutcome, String> {
        self.serve()?;
        self.outcome
            .take()
            .ok_or("server stopped without an outcome")?
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_TELEMETRY: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// The event loop's poll tick: bounds idle-sweep, metrics-delta and
/// shutdown-flush latency.
const TICK: Duration = Duration::from_millis(25);

/// What dialect a connection speaks.
#[derive(Clone, Copy, PartialEq)]
enum ConnKind {
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
    fn fill_from(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        if self.buf.len() - self.end < READ_CHUNK && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

/// One live TCP connection.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    rbuf: ReadBuf,
    wbuf: Vec<u8>,
    wstart: usize,
    /// The session this connection speaks for, once HELLO/RESUME done.
    session: Option<u64>,
    /// Read interest dropped: the session ran past the window.
    paused: bool,
    close_after_flush: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream, kind: ConnKind) -> Self {
        Conn {
            stream,
            kind,
            rbuf: ReadBuf::default(),
            wbuf: Vec::new(),
            wstart: 0,
            session: None,
            paused: false,
            close_after_flush: false,
            last_activity: Instant::now(),
        }
    }

    fn mid_frame(&self) -> bool {
        !self.rbuf.pending().is_empty()
    }
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
    /// The poll token of the attached connection, if any.
    conn: Option<u64>,
    /// When the session lost its connection (detached sessions only).
    detached_at: Option<Instant>,
    /// Control verbs queued, awaiting completion.
    inflight: u32,
}

/// Per-observer fan-out state.
struct ObserverState {
    /// Requested metrics-delta period; `None` = epoch events only.
    interval: Option<Duration>,
    /// When the next metrics delta is due.
    next_at: Instant,
    /// The metrics JSONL lines sent last time — a delta frame carries
    /// only lines that changed since.
    prev: HashSet<String>,
}

impl Server {
    fn serve(&mut self) -> Result<(), String> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            debug_assert!(self.settled(), "the loop would sleep with work it can do");
            self.poller
                .wait(&mut events, Some(TICK))
                .map_err(|e| format!("poll: {e}"))?;
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_TELEMETRY => self.accept_telemetry(),
                    token => {
                        if ev.writable {
                            self.conn_writable(token);
                        }
                        if ev.readable {
                            self.conn_readable(token);
                        }
                    }
                }
            }
            self.sweep(Instant::now());
            self.settle();
            self.fan_out_events();
            self.metrics_ticks(Instant::now());
            if let Some(deadline) = self.flush_deadline {
                let flushed = self.conns.values().all(|c| c.wbuf.len() == c.wstart);
                if flushed || Instant::now() >= deadline {
                    // Count what never reached the engine.
                    let dropped: u64 = self
                        .sessions
                        .values()
                        .map(|s| s.pending.remaining() as u64)
                        .sum();
                    if dropped > 0 {
                        self.metrics.dropped_records.add(dropped);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Runs the loop's own work to a fixpoint before it sleeps: parked
    /// tails move into the ring as ingest frees it (a resumed
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

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.metrics.connections.inc();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_conn_token;
                    self.next_conn_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, ConnKind::Wire));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (e.g. the
                // peer reset before we got to it) are not fatal.
                Err(_) => return,
            }
        }
    }

    /// Accepts HTTP scrape connections on the telemetry listener.
    fn accept_telemetry(&mut self) {
        loop {
            let listener = match &self.telemetry {
                Some(l) => l,
                None => return,
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_conn_token;
                    self.next_conn_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream, ConnKind::Http));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_readable(&mut self, token: u64) {
        if self
            .conns
            .get(&token)
            .map(|c| c.kind == ConnKind::Http)
            .unwrap_or(false)
        {
            self.http_readable(token);
            return;
        }
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
        match conn.rbuf.fill_from(&mut conn.stream) {
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
                conn.last_activity = Instant::now();
                self.process_frames(token);
            }
            // Not ready after all: the poller reports it again.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => self.close_conn(token, true),
        }
    }

    /// Decodes and handles every complete frame buffered on `token`.
    /// Returns false if the connection went away (or paused) and the
    /// caller should stop reading it.
    fn process_frames(&mut self, token: u64) -> bool {
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
            let started = Instant::now();
            let alive = match decoded {
                _ if observer => {
                    let why = "observer sessions are read-only";
                    self.refuse_close(token, error_code::PROTOCOL, why);
                    false
                }
                Decoded::Batch {
                    sequenced: false,
                    bad,
                } => self.on_batch(token, bad),
                Decoded::Batch {
                    sequenced: true,
                    bad,
                } => self.on_batch_seq(token, bad),
                Decoded::Other(msg) => self.handle_message(token, msg),
            };
            self.metrics
                .frame_nanos
                .observe(started.elapsed().as_nanos() as u64);
            // Feed the engine what the frame let into the window and run
            // the verbs now due — timed apart, as engine feeds.
            self.ingest();
            if !alive {
                return false;
            }
            if self
                .conns
                .get(&token)
                .map(|c| c.paused || c.close_after_flush)
                .unwrap_or(true)
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
            // them into `self.frame`); any server-to-client message
            // arriving is a protocol violation.
            Message::Batch { .. }
            | Message::BatchSeq { .. }
            | Message::HelloAck { .. }
            | Message::StatsReply { .. }
            | Message::AllocationReply { .. }
            | Message::ShutdownReply { .. }
            | Message::CostCurvesReply { .. }
            | Message::ApplyReply { .. }
            | Message::ResumeAck { .. }
            | Message::SubscribeAck { .. }
            | Message::EpochEventFrame { .. }
            | Message::MetricsDelta { .. }
            | Message::Error { .. } => {
                self.refuse_close(token, error_code::PROTOCOL, "unexpected message kind");
                false
            }
        }
    }

    /// Admits a read-only observer: SUBSCRIBE_ACK carries the run's
    /// journal header line, then the server pushes each epoch record
    /// (and, if requested, periodic metrics deltas) until shutdown.
    fn on_subscribe(&mut self, token: u64, metrics_interval_ms: u64) -> bool {
        if self.conn_session(token).is_some() {
            self.refuse_close(token, error_code::PROTOCOL, "session already open");
            return false;
        }
        if self.stopping() {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
            return false;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.kind = ConnKind::Observer;
        }
        let header = self.header.to_json_line();
        if !self.queue_msg(token, &Message::SubscribeAck { header }) {
            return false;
        }
        let interval = if metrics_interval_ms > 0 {
            Some(Duration::from_millis(metrics_interval_ms))
        } else {
            None
        };
        let mut state = ObserverState {
            interval,
            next_at: Instant::now() + interval.unwrap_or_default(),
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
    fn metrics_ticks(&mut self, now: Instant) {
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

    /// Reads an HTTP scrape request; once the header block is
    /// complete, queues the response and closes after flush.
    fn http_readable(&mut self, token: u64) {
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            if conn.close_after_flush {
                return;
            }
            match conn.rbuf.fill_from(&mut conn.stream) {
                Ok(0) => {
                    self.close_conn(token, false);
                    return;
                }
                Ok(_) => {
                    conn.last_activity = Instant::now();
                    if conn.rbuf.pending().windows(4).any(|w| w == b"\r\n\r\n") {
                        self.http_respond(token);
                        return;
                    }
                    if conn.rbuf.pending().len() > 16 * 1024 {
                        self.http_finish(
                            token,
                            http_response(
                                400,
                                "Bad Request",
                                "text/plain",
                                "header block too large\n",
                            ),
                        );
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return;
                }
            }
        }
    }

    fn http_respond(&mut self, token: u64) {
        let request_line = self
            .conns
            .get(&token)
            .and_then(|c| {
                let text = String::from_utf8_lossy(c.rbuf.pending());
                text.lines().next().map(str::to_string)
            })
            .unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let response = match (parts.next(), parts.next()) {
            (Some("GET"), Some(path)) if path == "/metrics" || path.starts_with("/metrics?") => {
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
        };
        self.http_finish(token, response);
    }

    fn http_finish(&mut self, token: u64, response: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.wbuf.extend_from_slice(&response);
            conn.close_after_flush = true;
        }
        self.flush_conn(token);
    }

    fn on_hello(&mut self, token: u64, binding: Option<u64>) -> bool {
        if self.conn_session(token).is_some() {
            self.refuse_close(token, error_code::PROTOCOL, "session already open");
            return false;
        }
        if self.stopping() {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
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
        if self.conn_session(token).is_some() {
            self.refuse_close(token, error_code::PROTOCOL, "session already open");
            return false;
        }
        if self.stopping() {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
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
            let started = Instant::now();
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
                .observe(started.elapsed().as_nanos() as u64);
            self.metrics.records.add(moved as u64);
        }
    }

    /// Executes one control verb against the engine.
    fn run_ctrl(&mut self, op: CtrlOp) -> Result<Message, (u64, String)> {
        let finished = || {
            (
                error_code::SHUTTING_DOWN,
                "engine already finished".to_string(),
            )
        };
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
                let started = Instant::now();
                let exported = eng.export_cost_curves().map_err(engine_refusal)?;
                let profile_nanos = started.elapsed().as_nanos() as u64;
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
                let started = Instant::now();
                let actuation = eng
                    .apply_allocation(&target, predicted, (trace != 0).then_some(trace))
                    .map_err(engine_refusal)?;
                let actuate_nanos = started.elapsed().as_nanos() as u64;
                Ok(Message::ApplyReply {
                    repartitioned: actuation.repartitioned,
                    units_moved: actuation.units_moved as u64,
                    actuate_nanos,
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
            .map(|s| s.pending.remaining() > 0)
            .unwrap_or(false);
        if backlogged {
            if let Some(conn) = self.conns.get_mut(&token) {
                if !conn.paused {
                    conn.paused = true;
                    self.metrics.window_pauses.inc();
                    self.update_interest(token);
                }
            }
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
                .map(|c| c.kind == ConnKind::Observer)
                .unwrap_or(false);
            if Some(token) == keep || observer {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_flush = true;
                    self.update_interest(token);
                }
            } else {
                self.close_conn(token, false);
            }
        }
        self.flush_deadline = Some(Instant::now() + Duration::from_secs(2));
    }

    /// Periodic housekeeping: idle/stall closes and resume-grace
    /// expiry.
    fn sweep(&mut self, now: Instant) {
        let idle = self.idle_timeout;
        let mut stalled: Vec<u64> = Vec::new();
        let mut idled: Vec<u64> = Vec::new();
        let mut http_idled: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.close_after_flush || conn.paused {
                continue;
            }
            // Observers are quiet by design — the server is the only
            // side that talks. HTTP conns that never finish a request
            // are torn down without a wire error frame.
            if conn.kind == ConnKind::Observer {
                continue;
            }
            if conn.kind == ConnKind::Http {
                if now.duration_since(conn.last_activity) >= idle {
                    http_idled.push(token);
                }
                continue;
            }
            // A connection waiting on a queued control reply is the
            // server's own latency, not client idleness.
            let waiting = conn
                .session
                .and_then(|id| self.sessions.get(&id))
                .map(|s| s.inflight > 0)
                .unwrap_or(false);
            if waiting {
                continue;
            }
            if now.duration_since(conn.last_activity) < idle {
                continue;
            }
            if conn.mid_frame() {
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
                        .map(|at| now.duration_since(at) >= grace)
                        .unwrap_or(false)
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
        let conn = match self.conns.remove(&token) {
            Some(c) => c,
            None => return,
        };
        if self.observers.remove(&token).is_some() {
            self.watch_events();
        }
        let _ = self.poller.deregister(&conn.stream, token);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        if let Some(id) = conn.session {
            let detachable = may_detach
                && !self.stopping()
                && self.flush_deadline.is_none()
                && self
                    .sessions
                    .get(&id)
                    .map(|s| s.sequenced && s.records > 0)
                    .unwrap_or(false);
            if detachable {
                if let Some(sess) = self.sessions.get_mut(&id) {
                    sess.conn = None;
                    sess.detached_at = Some(Instant::now());
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
        let msg = Message::Error {
            code,
            message: message.to_string(),
        };
        // Best effort: encode (an Error frame is always small) and
        // push straight into the socket; whatever does not fit is
        // lost, the peer is being hung up on anyway.
        if let Ok(frame) = encode(&msg) {
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.stream.write_all(&frame);
            }
        }
        self.close_conn(token, may_detach);
    }

    /// Encodes and queues a reply on a connection. An unframeable
    /// (oversized) reply degrades to a typed Error frame — the
    /// connection survives. Returns false if the connection died.
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
        let conn = match self.conns.get_mut(&token) {
            Some(c) => c,
            None => return false,
        };
        conn.wbuf.extend_from_slice(&frame);
        self.flush_conn(token)
    }

    /// Writes as much buffered output as the socket takes; arms write
    /// interest for the rest. Returns false if the connection died.
    fn flush_conn(&mut self, token: u64) -> bool {
        let mut dead = false;
        let mut done = false;
        {
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return false,
            };
            while conn.wstart < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.wstart += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.wstart == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wstart = 0;
                done = conn.close_after_flush;
            }
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

    fn conn_writable(&mut self, token: u64) {
        self.flush_conn(token);
    }

    fn update_interest(&mut self, token: u64) {
        if let Some(conn) = self.conns.get(&token) {
            let interest = Interest {
                read: !conn.paused && !conn.close_after_flush,
                write: conn.wstart < conn.wbuf.len(),
            };
            let _ = self.poller.set_interest(&conn.stream, token, interest);
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

/// What a verified frame decoded to.
enum Decoded {
    /// A batch verb: its records sit in the `Runs` handed to
    /// [`decode_frame`]. `bad` is the first tenant id among them that
    /// the session may not send.
    Batch { sequenced: bool, bad: Option<u64> },
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
    let sequenced = match opcode {
        OP_BATCH => {
            frame.load_batch(payload, assigned, see_tenant)?;
            false
        }
        OP_BATCH_SEQ => {
            frame.load_batch_seq(payload, see_tenant)?;
            true
        }
        _ => {
            return Ok(Some((
                Decoded::Other(decode_payload(opcode, payload)?),
                used,
            )))
        }
    };
    Ok(Some((Decoded::Batch { sequenced, bad }, used)))
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
