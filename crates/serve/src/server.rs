//! The TCP daemon: one thread — an epoll driver around the sans-I/O
//! serving `Core`.
//!
//! The caller of [`Server::run`] is the whole daemon, however many
//! clients connect: it owns both listeners and every socket behind the
//! crate's zero-dep poller, and the core owns the engine, so nothing
//! crosses a thread and nothing is locked or woken. Thousands of idle
//! sessions cost file descriptors, not stacks. The driver only moves
//! bytes and time: it hands the core each readiness event stamped with
//! the time since [`run`](Server::run) started, performs the reads,
//! writes, interest changes and closes the core asks for, and ends
//! every pass with `Core::tick`. Every decision lives in the core.

use crate::core::{ConnKind, Core, Io};
use crate::poll::{Interest, Poller};
use cps_engine::EngineConfig;
use cps_obs::{MetricsRegistry, RunDigest};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
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

/// The daemon: bound by [`bind`](Self::bind), run to SHUTDOWN by
/// [`run`](Self::run) on the caller's thread.
pub struct Server {
    core: Core<Sockets>,
    listener: TcpListener,
    telemetry: Option<TcpListener>,
    next_token: u64,
}

/// The sockets the core acts on, under their poll tokens.
struct Sockets {
    poller: Poller,
    streams: HashMap<u64, TcpStream>,
}

impl Io for Sockets {
    fn read(&mut self, conn: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.streams
            .get_mut(&conn)
            .ok_or(io::ErrorKind::NotConnected)?
            .read(buf)
    }

    fn write(&mut self, conn: u64, bytes: &[u8]) -> io::Result<usize> {
        self.streams
            .get_mut(&conn)
            .ok_or(io::ErrorKind::NotConnected)?
            .write(bytes)
    }

    fn interest(&mut self, conn: u64, interest: Interest) {
        if let Some(stream) = self.streams.get(&conn) {
            let _ = self.poller.set_interest(stream, conn, interest);
        }
    }

    fn close(&mut self, conn: u64) {
        if let Some(stream) = self.streams.remove(&conn) {
            let _ = self.poller.deregister(&stream, conn);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_TELEMETRY: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// The event loop's poll tick: bounds idle-sweep, metrics-delta and
/// shutdown-flush latency.
const TICK: Duration = Duration::from_millis(25);

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// builds the engine. Server counters and engine instruments all
    /// register in `registry`.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Server, String> {
        let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        let mut listen = |addr: &str, token: u64, what: &str| {
            let listener =
                TcpListener::bind(addr).map_err(|e| format!("{what}bind {addr}: {e}"))?;
            listener
                .set_nonblocking(true)
                .and_then(|()| poller.register(&listener, token, Interest::READ))
                .map_err(|e| format!("{what}listener: {e}"))?;
            Ok::<_, String>(listener)
        };
        let listener = listen(addr, TOKEN_LISTENER, "")?;
        let telemetry = match &config.telemetry_addr {
            Some(t) => Some(listen(t, TOKEN_TELEMETRY, "telemetry ")?),
            None => None,
        };
        let sockets = Sockets {
            poller,
            streams: HashMap::new(),
        };
        Ok(Server {
            core: Core::new(sockets, config, registry, cps_obs::nonce()),
            listener,
            telemetry,
            next_token: TOKEN_FIRST_CONN,
        })
    }

    /// Streams the hosted engine's journal into `sink` as its epochs
    /// close (see [`cps_engine::Engine::set_journal`]). Call before
    /// [`run`](Self::run).
    pub fn set_journal(&mut self, sink: impl Write + Send + 'static) {
        self.core.set_journal(sink);
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
        let started = Instant::now();
        let mut events = Vec::new();
        loop {
            self.core
                .io
                .poller
                .wait(&mut events, Some(TICK))
                .map_err(|e| format!("poll: {e}"))?;
            let now = started.elapsed();
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept(ConnKind::Wire, now),
                    TOKEN_TELEMETRY => self.accept(ConnKind::Http, now),
                    token => {
                        if ev.writable {
                            self.core.writable(token, now);
                        }
                        if ev.readable {
                            self.core.readable(token, now);
                        }
                    }
                }
            }
            if let Some(outcome) = self.core.tick(started.elapsed()) {
                return outcome;
            }
        }
    }

    /// Accepts every pending connection on the wire listener (`Wire`)
    /// or the telemetry listener (`Http`) and opens it in the core.
    fn accept(&mut self, kind: ConnKind, now: Duration) {
        let listener = match kind {
            ConnKind::Http => self.telemetry.as_ref(),
            _ => Some(&self.listener),
        };
        let Some(listener) = listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let sockets = &mut self.core.io;
                    if sockets
                        .poller
                        .register(&stream, token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    sockets.streams.insert(token, stream);
                    self.core.open(token, kind, now);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Drained (`WouldBlock`), or a transient per-connection
                // failure (the peer reset before we got to it): not fatal.
                Err(_) => return,
            }
        }
    }
}
