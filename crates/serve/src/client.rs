//! A blocking client for the `cps serve` wire protocol.
//!
//! [`Client::connect`] performs the HELLO handshake and returns a
//! session whose [`EngineConfig`] is the engine the server is
//! hosting — enough to rebuild the identical engine in process, which
//! is exactly what `cps bench-net` does to cross-validate a served
//! run. A session runs over any byte transport: a TCP stream to a
//! daemon, or ([`Client::hello`]) an in-process
//! [`Loopback`](crate::Loopback) to the same serving core. Batches are
//! fire-and-forget (no per-batch acknowledgement); control verbs are
//! strict request/reply, so any [`Message::Error`] the server
//! interleaves surfaces on the next reply read as a typed
//! [`ServeError::Server`].

use crate::wire::{
    encode_batch_into, encode_batch_seq_into, read_message, write_message, Message, ServeStats,
    WireCurve, WireError,
};
use cps_engine::EngineConfig;
use cps_obs::{parse_journal_line, JournalLine, RunDigest};
use std::io::{Read, Write};
use std::net::TcpStream;

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The server refused the request with a typed error frame.
    Server {
        /// One of [`crate::wire::error_code`]'s constants.
        code: u64,
        /// Human-readable refusal reason from the server.
        message: String,
    },
    /// The server replied with a frame the protocol does not allow
    /// in this position.
    UnexpectedReply(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Wire(e) => write!(f, "wire error: {e}"),
            ServeError::Server { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ServeError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Wire(WireError::Io(e.kind(), e.to_string()))
    }
}

/// Sends `request` and reads the reply; a typed refusal surfaces as
/// [`ServeError::Server`].
fn exchange(stream: &mut (impl Read + Write), request: &Message) -> Result<Message, ServeError> {
    write_message(stream, request)?;
    match read_message(stream)? {
        Message::Error { code, message } => Err(ServeError::Server { code, message }),
        reply => Ok(reply),
    }
}

/// Connects to `addr`; every frame goes out whole, so Nagle is off.
fn dial(addr: &str) -> Result<TcpStream, ServeError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Opens a session: connects to `addr` and sends its opening verb
/// (RESUME or SUBSCRIBE). Returns the stream and the server's ack;
/// each caller matches its own.
fn handshake(addr: &str, opening: &Message) -> Result<(TcpStream, Message), ServeError> {
    let mut stream = dial(addr)?;
    let ack = exchange(&mut stream, opening)?;
    Ok((stream, ack))
}

/// A connected, admitted session over the byte transport `S`.
pub struct Client<S = TcpStream> {
    stream: S,
    config: EngineConfig,
    token: u64,
    /// The batch frame being sent, reused from batch to batch.
    frame: Vec<u8>,
}

impl Client {
    /// Connects to `addr`, sends HELLO with the given binding
    /// (`None` = mux session carrying explicit tenant ids, `Some(t)` =
    /// bound to tenant `t`), and waits for admission.
    pub fn connect(addr: &str, binding: Option<u64>) -> Result<Client, ServeError> {
        Client::hello(dial(addr)?, binding)
    }

    /// Rejoins a dropped session on a fresh TCP connection using the
    /// token its HELLO_ACK disclosed. Returns the rejoined client and
    /// `resume_pos`: the first global stream position the server never
    /// received from the session — resend sequenced records from there.
    pub fn resume(addr: &str, token: u64) -> Result<(Client, u64), ServeError> {
        match handshake(addr, &Message::Resume { token })? {
            (stream, Message::ResumeAck { config, resume_pos }) => {
                Ok((Client::new(stream, config, token), resume_pos))
            }
            _ => Err(ServeError::UnexpectedReply("expected RESUME_ACK")),
        }
    }
}

impl<S: Read + Write> Client<S> {
    /// Opens a session over `stream`, a transport to a serving core:
    /// sends HELLO with the given binding (as [`Client::connect`]
    /// does) and waits for admission.
    pub fn hello(mut stream: S, binding: Option<u64>) -> Result<Client<S>, ServeError> {
        match exchange(&mut stream, &Message::Hello { binding })? {
            Message::HelloAck { config, token } => Ok(Client::new(stream, config, token)),
            _ => Err(ServeError::UnexpectedReply("expected HELLO_ACK")),
        }
    }

    fn new(stream: S, config: EngineConfig, token: u64) -> Client<S> {
        Client {
            stream,
            config,
            token,
            frame: Vec::new(),
        }
    }

    /// The server's engine configuration, as disclosed in HELLO_ACK.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The session's resume token, as disclosed in HELLO_ACK.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Streams one access batch. Fire-and-forget: the server only
    /// responds to a batch when it refuses it, and that error surfaces
    /// on the next control-verb reply (or as a closed connection).
    pub fn push_batch(&mut self, records: &[(u64, u64)]) -> Result<(), ServeError> {
        encode_batch_into(&mut self.frame, records)?;
        self.send_frame()
    }

    /// Streams one *sequenced* batch of `(position, tenant, block)`
    /// records — positions strictly increasing within the frame and
    /// monotone across the session's lifetime. Fire-and-forget, like
    /// [`push_batch`](Self::push_batch).
    pub fn push_batch_seq(&mut self, records: &[(u64, u64, u64)]) -> Result<(), ServeError> {
        encode_batch_seq_into(&mut self.frame, records)?;
        self.send_frame()
    }

    fn send_frame(&mut self) -> Result<(), ServeError> {
        Ok(self.stream.write_all(&self.frame)?)
    }

    fn request(&mut self, msg: &Message) -> Result<Message, ServeError> {
        exchange(&mut self.stream, msg)
    }

    /// Fetches the server's ingest/session counters, the completed-epoch
    /// count among them.
    pub fn stats(&mut self) -> Result<ServeStats, ServeError> {
        match self.request(&Message::Stats)? {
            Message::StatsReply { stats } => Ok(stats),
            _ => Err(ServeError::UnexpectedReply("expected STATS_REPLY")),
        }
    }

    /// Fetches the engine's current per-tenant allocation in units.
    pub fn allocation(&mut self) -> Result<Vec<u64>, ServeError> {
        match self.request(&Message::Allocation)? {
            Message::AllocationReply { units } => Ok(units),
            _ => Err(ServeError::UnexpectedReply("expected ALLOCATION_REPLY")),
        }
    }

    /// Closes the node's current epoch under external clocking and
    /// fetches every tenant's realized counts and miss-ratio samples —
    /// the coordinator's pull half of a cluster epoch. Must be paired
    /// with [`apply`](Self::apply) to book the boundary. `objective` is
    /// the coordinator's objective spec; the node refuses the request
    /// unless it matches the objective its engine was built with.
    /// `trace` (0 = untraced) correlates the boundary across nodes; the
    /// second return value is the node's profile wall clock in
    /// nanoseconds — its child span of the coordinator's epoch.
    pub fn cost_curves(
        &mut self,
        objective: &str,
        trace: u64,
    ) -> Result<(Vec<WireCurve>, u64), ServeError> {
        match self.request(&Message::CostCurves {
            objective: objective.to_string(),
            trace,
        })? {
            Message::CostCurvesReply {
                curves,
                profile_nanos,
            } => Ok((curves, profile_nanos)),
            _ => Err(ServeError::UnexpectedReply("expected COST_CURVES_REPLY")),
        }
    }

    /// Pushes a coordinator-chosen allocation down to the node,
    /// completing the boundary opened by
    /// [`cost_curves`](Self::cost_curves). `trace` (0 = untraced) is
    /// stamped onto the node's booked epoch. Returns `(repartitioned,
    /// units_moved, actuate_nanos)` — what the node's actuator did with
    /// the allocation and how long it took.
    pub fn apply(
        &mut self,
        units: &[u64],
        predicted_cost: Option<f64>,
        trace: u64,
    ) -> Result<(bool, u64, u64), ServeError> {
        let msg = Message::Apply {
            units: units.to_vec(),
            predicted_bits: predicted_cost.map(f64::to_bits),
            trace,
        };
        match self.request(&msg)? {
            Message::ApplyReply {
                repartitioned,
                units_moved,
                actuate_nanos,
            } => Ok((repartitioned, units_moved, actuate_nanos)),
            _ => Err(ServeError::UnexpectedReply("expected APPLY_REPLY")),
        }
    }

    /// Asks the server to finish the engine and shut down; consumes
    /// the session and returns how the run's journal ended — its
    /// summary and canonical digest. The journal itself is the
    /// daemon's `--journal` file.
    pub fn shutdown(mut self) -> Result<RunDigest, ServeError> {
        match self.request(&Message::Shutdown)? {
            Message::ShutdownReply { summary, digest } => match parse_journal_line(&summary) {
                Ok(JournalLine::Summary(summary)) => Ok(RunDigest { summary, digest }),
                _ => Err(ServeError::UnexpectedReply(
                    "SHUTDOWN_REPLY without a summary line",
                )),
            },
            _ => Err(ServeError::UnexpectedReply("expected SHUTDOWN_REPLY")),
        }
    }
}

/// One frame delivered to an [`Observer`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObserverEvent {
    /// A live epoch record, rendered as its journal v3 JSONL line
    /// (parse with [`cps_obs::parse_journal_line`]).
    Epoch(String),
    /// A metrics frame: the registry samples that changed since the
    /// observer's previous frame, as metrics JSONL (cumulative values).
    /// The first frame after subscribing is the full snapshot.
    Metrics(String),
}

/// A read-only observer session: the live-telemetry consumer half of
/// the SUBSCRIBE verb. Observers never ingest and never poll — the
/// server pushes each epoch record (and, optionally, periodic metrics
/// deltas) as it is produced.
pub struct Observer {
    stream: TcpStream,
    header: String,
}

impl Observer {
    /// Connects to `addr` and subscribes. `metrics_interval_ms` is the
    /// requested period between metrics-delta frames (`0` = epoch
    /// events only). The returned observer has already received the
    /// run's journal header line (see [`header`](Self::header)).
    pub fn subscribe(addr: &str, metrics_interval_ms: u64) -> Result<Observer, ServeError> {
        let subscribe = Message::Subscribe {
            metrics_interval_ms,
        };
        match handshake(addr, &subscribe)? {
            (stream, Message::SubscribeAck { header }) => Ok(Observer { stream, header }),
            _ => Err(ServeError::UnexpectedReply("expected SUBSCRIBE_ACK")),
        }
    }

    /// The run's journal header line, as SUBSCRIBE_ACK disclosed it.
    pub fn header(&self) -> &str {
        &self.header
    }

    /// Blocks for the next pushed frame. `Ok(None)` is a clean close —
    /// the server finished its run and tore the stream down. With a
    /// `timeout`, an idle wait surfaces as a [`ServeError::Wire`] whose
    /// inner error satisfies
    /// [`is_timeout`](crate::wire::WireError::is_timeout) — keep
    /// waiting; it is a deadline, not a failure.
    pub fn next_event(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> Result<Option<ObserverEvent>, ServeError> {
        self.stream.set_read_timeout(timeout)?;
        match read_message(&mut self.stream) {
            Ok(Message::EpochEventFrame { line }) => Ok(Some(ObserverEvent::Epoch(line))),
            Ok(Message::MetricsDelta { text }) => Ok(Some(ObserverEvent::Metrics(text))),
            Ok(Message::Error { code, message }) => Err(ServeError::Server { code, message }),
            Ok(_) => Err(ServeError::UnexpectedReply(
                "expected EPOCH_EVENT or METRICS_DELTA",
            )),
            Err(WireError::Closed) => Ok(None),
            Err(e) => Err(ServeError::Wire(e)),
        }
    }
}
