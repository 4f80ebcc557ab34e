//! The versioned wire protocol: checksummed frames around varint
//! payloads.
//!
//! Hand-rolled like `cps-obs::json` — no serde, no external codecs —
//! with a decoder that cross-validates everything it reads: magic,
//! version, declared length, a word-wise checksum over the entire
//! frame body, and exact payload consumption. Every malformed input
//! maps to a typed [`WireError`]; the decoder never panics (pinned by
//! the `wire_props` proptests, which feed it truncations and bit
//! flips).
//!
//! # Frame layout (protocol version 8)
//!
//! ```text
//! offset  size  field
//! 0       2     magic "CS" (0x43 0x53)
//! 2       1     protocol version (= 8)
//! 3       1     opcode
//! 4       4     payload length, u32 little-endian
//! 8       4     checksum over version|opcode|length|payload, u32 LE
//! 12      len   payload (opcode-specific; LEB128 varints, except the
//!               batch verbs' block ids: 8 bytes, little-endian)
//! ```
//!
//! A block id is an address over a line size, tens of bits wide. As a
//! varint its length — and so where the next record starts — depends
//! on which tenant's region it falls in, which the decoder cannot
//! predict. As a fixed-width word it decodes without that branch, for
//! about one more byte per record. A tenant below 128 is a one-byte
//! varint, so a BATCH of such tenants is 9-byte records, which the
//! decoder reads at that stride.
//!
//! # Checksum
//!
//! Every step is `mix(h, w, m) = ((h ^ w) * m mod 2^64) rotl 31` with
//! an odd multiplier `m` — a bijection of `h` for a fixed word and of
//! the word for a fixed `h`. The payload is cut into 8-byte
//! little-endian words; word `i` of each 32-byte block goes through
//! lane `i` of four independent lanes (own seed, own multiplier), so
//! the four multiply chains overlap instead of queueing behind each
//! other the way a byte-serial hash does. The up-to-three whole words
//! after the last block take lanes 0, 1, 2 in order; the up-to-seven
//! bytes after those are zero-padded into one *tail* word. The fold
//! then mixes, in order, the *head* word (version, opcode and the four
//! length bytes, zero-padded — so the sum is a function of the version
//! and the length), the tail word and the four lanes into one
//! accumulator, and the sum is its high half xor its low half. Only
//! fixed-width integers and `from_le_bytes` are involved: every
//! platform computes the same sum (the `pinned_v8_frames` fixture
//! holds two of them).
//!
//! A change confined to one word always changes the 64-bit
//! accumulator; the 32-bit fold lets a corrupted frame through with
//! probability 2^-32. The version byte is checked *before* the sum —
//! a peer speaking another version is told [`WireError::BadVersion`],
//! not [`WireError::ChecksumMismatch`]. So corruption surfaces as
//! [`WireError::BadMagic`] (magic), [`WireError::BadVersion`]
//! (version byte), a bounds error (length field), or
//! [`WireError::ChecksumMismatch`] (anywhere else).
//!
//! # Messages
//!
//! Requests flow client → server, replies server → client; both
//! directions use the same framing. See [`Message`] for the opcode
//! table and per-opcode payloads.

use cps_engine::{ConfigError, EngineConfig, Policy};
use std::io::{ErrorKind, Read, Write};

/// Frame magic: `"CS"`, for *cache serve*.
pub const MAGIC: [u8; 2] = [0x43, 0x53];

/// The only protocol version this codec speaks. Version 8 sends the
/// batch verbs' block ids as fixed 8-byte words. (Version 7 replaced
/// SHUTDOWN_REPLY's journal body with its summary line and digest, so
/// no run outgrows [`MAX_PAYLOAD`]; version 6 retired the EPOCH and
/// SNAPSHOT verbs and HELLO_ACK's engine-kind byte; version 5 replaced
/// the byte-serial FNV-1a frame checksum with the word-wise one above and
/// dropped the retired queued engine's slots; version 4 added the live
/// telemetry plane — SUBSCRIBE observers, EPOCH_EVENT / METRICS_DELTA
/// frames, trace ids on COST_CURVES/APPLY; version 3 resume tokens and
/// sequenced BATCH_SEQ records; version 2 first-class objective specs.)
pub const PROTOCOL_VERSION: u8 = 8;

/// Frame header length in bytes (magic + version + opcode + length +
/// checksum).
pub const HEADER_LEN: usize = 12;

/// Hard cap on a frame's payload: a decoder refuses anything larger
/// before allocating.
pub const MAX_PAYLOAD: usize = 8 << 20;

/// The policy byte of a HELLO_ACK config: a policy's code is its index.
pub const POLICY_CODES: [Policy; 3] = [
    Policy::Optimal,
    Policy::EqualBaseline,
    Policy::NaturalBaseline,
];

/// Error codes carried by [`Message::Error`] frames.
pub mod error_code {
    /// Malformed or out-of-order message (e.g. BATCH before HELLO).
    pub const PROTOCOL: u64 = 1;
    /// A record or binding named a tenant the engine does not serve.
    pub const BAD_TENANT: u64 = 2;
    /// The session table is at `--max-conns`.
    pub const SERVER_FULL: u64 = 3;
    /// The engine has been finished; no further ingest or reads.
    pub const SHUTTING_DOWN: u64 = 4;
    /// The session sat idle past `--idle-timeout` and was torn down.
    pub const IDLE_TIMEOUT: u64 = 5;
    /// The engine variant behind the server cannot perform the request
    /// (e.g. externally clocked epochs on a sharded engine).
    pub const UNSUPPORTED: u64 = 6;
    /// The coordinator's objective spec does not match the objective
    /// the node's engine was built with.
    pub const OBJECTIVE: u64 = 7;
    /// A reply's payload exceeded [`crate::wire::MAX_PAYLOAD`] and
    /// could not be framed (e.g. the cost curves of a very wide engine).
    pub const PAYLOAD_TOO_LARGE: u64 = 8;
    /// A BATCH_SEQ stream position was invalid: it went backwards, was
    /// already ingested, or mixed sequenced and unsequenced batches in
    /// one run.
    pub const BAD_SEQUENCE: u64 = 9;
    /// The session stalled mid-frame past the read deadline — a
    /// half-sent frame, distinct from benign idleness between frames.
    pub const STALLED: u64 = 10;
    /// A RESUME token named no resumable session.
    pub const BAD_TOKEN: u64 = 11;
    /// The daemon could not write its journal; the run it finished has
    /// no complete record.
    pub const JOURNAL: u64 = 12;
    /// The peer left more of the server's output unread than the send
    /// cap allows (an observer that stopped reading).
    pub const SLOW_CONSUMER: u64 = 13;
}

/// What went wrong while encoding or decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The input ended inside a frame (header or payload cut short).
    Truncated,
    /// The first two bytes were not [`MAGIC`].
    BadMagic([u8; 2]),
    /// The frame declared a protocol version this codec does not speak.
    BadVersion(u8),
    /// The opcode byte names no known message.
    UnknownOpcode(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    FrameTooLarge(usize),
    /// The frame body failed its checksum — corruption in transit.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u32,
        /// Checksum recomputed over the received body.
        found: u32,
    },
    /// A varint ran past 10 bytes or overflowed `u64`.
    VarintOverflow,
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes(usize),
    /// The payload's structure contradicts its opcode.
    BadPayload(&'static str),
    /// A HELLO_ACK or RESUME_ACK announced an engine shape that fails
    /// [`EngineConfig::validate`].
    BadConfig(ConfigError),
    /// A message could not be *encoded* because its payload would
    /// exceed [`MAX_PAYLOAD`] — the send-path twin of
    /// [`WireError::FrameTooLarge`]. Returned instead of panicking so
    /// a server can surface a typed `Error` frame and keep running.
    PayloadTooLarge(usize),
    /// A read deadline fired *mid-frame*: some bytes of the frame
    /// arrived, then the sender stalled. Distinct from an idle timeout
    /// (no header byte at all), which stays [`WireError::Io`] — see
    /// [`WireError::is_timeout`].
    Stalled {
        /// Bytes of the stalled read that did arrive.
        filled: usize,
    },
    /// An underlying socket error (kind preserved so callers can tell
    /// an idle-timeout apart from a hard failure).
    Io(ErrorKind, String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad magic {:#04x} {:#04x}", m[0], m[1]),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (want {PROTOCOL_VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame payload {n} bytes exceeds cap {MAX_PAYLOAD}")
            }
            WireError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#010x}, body {found:#010x}"
                )
            }
            WireError::VarintOverflow => write!(f, "varint overflows u64"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
            WireError::BadConfig(e) => write!(f, "bad engine config: {e}"),
            WireError::PayloadTooLarge(n) => {
                write!(f, "cannot frame {n}-byte payload (cap {MAX_PAYLOAD})")
            }
            WireError::Stalled { filled } => {
                write!(f, "frame stalled mid-read after {filled} bytes")
            }
            WireError::Io(kind, detail) => write!(f, "i/o ({kind:?}): {detail}"),
        }
    }
}

impl WireError {
    /// Whether this error is a *between-frames* read timeout — the
    /// idle-session signal. A timeout that fires mid-frame is
    /// [`WireError::Stalled`] instead and is *not* idle.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(ErrorKind::WouldBlock | ErrorKind::TimedOut, _)
        )
    }

    /// Whether this error is a mid-frame stall (the sender went quiet
    /// with a frame half-sent).
    pub fn is_stalled(&self) -> bool {
        matches!(self, WireError::Stalled { .. })
    }
}

/// One tenant's exported state in a [`Message::CostCurvesReply`]:
/// realized epoch counts plus the profiler's blended miss-ratio curve
/// as bit-exact `f64::to_bits` samples (`samples_bits[i]` is the miss
/// ratio at a cache of `i` blocks). An empty sample vector means the
/// tenant has never been observed — the engine has no curve yet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireCurve {
    /// Accesses the tenant made in the epoch just closed.
    pub accesses: u64,
    /// Misses among them.
    pub misses: u64,
    /// Miss-ratio samples, indexed by cache size in blocks, each an
    /// `f64::to_bits` image (bit-exact transport, like the config's decay).
    pub samples_bits: Vec<u64>,
}

/// Server-side counters returned by STATS.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Sessions currently open.
    pub active_sessions: u64,
    /// Frames read from clients.
    pub frames: u64,
    /// BATCH frames among them.
    pub batches: u64,
    /// Access records ingested.
    pub records: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Epochs the engine has completed.
    pub epochs: u64,
}

/// One protocol message; the number in each variant's doc is its
/// opcode byte.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// `0x01`, client → server. Opens a session. `binding: None` is a
    /// mux session (records carry explicit tenant ids — any tenant);
    /// `Some(t)` binds the session to tenant `t` (every record must
    /// name it).
    Hello {
        /// Tenant binding for the session.
        binding: Option<u64>,
    },
    /// `0x02`, server → client. Accepts the session and discloses the
    /// engine configuration plus a resume token: if the TCP connection
    /// later drops, a fresh connection can [`Message::Resume`] with the
    /// token and rejoin the same session.
    HelloAck {
        /// The serving engine's full configuration.
        config: EngineConfig,
        /// Opaque session resume token.
        token: u64,
    },
    /// `0x03`, client → server. One batch of `(tenant, block)` access
    /// records, ingested in order. No reply — streaming. Unsequenced:
    /// records take whatever global stream positions arrival order
    /// gives them (single-connection use).
    Batch {
        /// The records, in stream order.
        records: Vec<(u64, u64)>,
    },
    /// `0x04`, client → server. Rejoins a dropped session by its
    /// [`Message::HelloAck`] token instead of opening a new one. The
    /// reply is [`Message::ResumeAck`], whose `resume_pos` tells the
    /// client the first stream position the server has *not* received —
    /// resend from there.
    Resume {
        /// The token HELLO_ACK disclosed.
        token: u64,
    },
    /// `0x05`, client → server. A *sequenced* batch: every record
    /// carries its global stream position, so the server can reassemble
    /// one canonical order from many concurrent connections. Positions
    /// within a frame are strictly increasing (delta-coded on the
    /// wire); across the whole run every position `0..len` must arrive
    /// exactly once.
    BatchSeq {
        /// `(position, tenant, block)` records, positions strictly
        /// increasing.
        records: Vec<(u64, u64, u64)>,
    },
    /// `0x06`, client → server. Turns this connection into a read-only
    /// *observer*: the server answers with [`Message::SubscribeAck`]
    /// followed by a stream of unsolicited [`Message::EpochEventFrame`]
    /// frames (one per epoch the engine closes, live) and — when
    /// `metrics_interval_ms` is nonzero — periodic
    /// [`Message::MetricsDelta`] frames. Observers cannot ingest or
    /// issue control requests; they watch.
    Subscribe {
        /// Milliseconds between metrics-delta frames; `0` subscribes to
        /// epoch events only.
        metrics_interval_ms: u64,
    },
    /// `0x10`, client → server. Requests server counters.
    Stats,
    /// `0x11`, client → server. Requests the current allocation.
    Allocation,
    /// `0x14`, client → server. Finishes the engine and tears the
    /// server down; the reply carries the run's journal.
    Shutdown,
    /// `0x15`, client → server. Closes the current epoch under
    /// external clocking and requests every tenant's realized counts
    /// and miss-ratio curve — a cluster coordinator's pull half of an
    /// epoch. Must be followed by [`Message::Apply`] to book the
    /// boundary. Carries the coordinator's objective spec; the node
    /// refuses with [`error_code::OBJECTIVE`] unless it matches its
    /// engine's objective.
    CostCurves {
        /// The coordinator's objective spec (see
        /// [`cps_core::Objective::parse`]).
        objective: String,
        /// Coordinator trace id correlating this boundary across nodes
        /// (`0` = untraced; pre-v4 coordinators).
        trace: u64,
    },
    /// `0x16`, client → server. Pushes a coordinator-chosen allocation
    /// down to the node, completing the boundary opened by
    /// [`Message::CostCurves`]. The total may be *below* the node's
    /// capacity (a budget), never above it.
    Apply {
        /// Per-tenant budgets in units.
        units: Vec<u64>,
        /// Coordinator's predicted cost for the epoch, as
        /// `f64::to_bits` (`None` when the top-level solve was skipped).
        predicted_bits: Option<u64>,
        /// Coordinator trace id stamped onto the node's booked epoch
        /// (`0` = untraced).
        trace: u64,
    },
    /// `0x20`, server → client. Reply to [`Message::Stats`].
    StatsReply {
        /// The counters at the time of the request.
        stats: ServeStats,
    },
    /// `0x21`, server → client. Reply to [`Message::Allocation`].
    AllocationReply {
        /// Current per-tenant allocation in units.
        units: Vec<u64>,
    },
    /// `0x24`, server → client. Reply to [`Message::Shutdown`]: how
    /// the finished run's journal ends.
    ShutdownReply {
        /// The journal's summary line, as `--journal` ends with it.
        summary: String,
        /// FNV-1a of the canonical journal after its run header
        /// (`cps_obs::Journal::digest`).
        digest: u64,
    },
    /// `0x25`, server → client. Reply to [`Message::CostCurves`]: one
    /// entry per tenant, in tenant order.
    CostCurvesReply {
        /// Exported per-tenant state.
        curves: Vec<WireCurve>,
        /// Wall-clock nanoseconds the node spent closing its profile
        /// window for this export — the coordinator's per-node profile
        /// child span.
        profile_nanos: u64,
    },
    /// `0x26`, server → client. Reply to [`Message::Apply`]: what the
    /// node's actuator did with the pushed allocation.
    ApplyReply {
        /// Whether the allocation was applied to the cache.
        repartitioned: bool,
        /// Units the proposal would have moved.
        units_moved: u64,
        /// Wall-clock nanoseconds the node spent actuating the pushed
        /// allocation — the coordinator's per-node actuate child span.
        actuate_nanos: u64,
    },
    /// `0x27`, server → client. Reply to [`Message::Resume`]: the
    /// session is rejoined. `resume_pos` is the first global stream
    /// position the server has not received from this session; the
    /// client resends its records from there.
    ResumeAck {
        /// The serving engine's full configuration (identical to what
        /// the original HELLO_ACK disclosed).
        config: EngineConfig,
        /// First stream position to resend from.
        resume_pos: u64,
    },
    /// `0x28`, server → client. Accepts a [`Message::Subscribe`],
    /// carrying the run's journal header line so the observer can
    /// label what it is watching.
    SubscribeAck {
        /// The run header as a journal v3 JSONL line.
        header: String,
    },
    /// `0x29`, server → client, unsolicited. One live epoch record,
    /// rendered exactly as the journal's epoch JSONL line — observers
    /// parse it with [`cps_obs::parse_journal_line`].
    EpochEventFrame {
        /// The epoch's journal line (no trailing newline).
        line: String,
    },
    /// `0x2a`, server → client, unsolicited. A periodic metrics frame:
    /// the registry samples that *changed* since the observer's last
    /// frame (cumulative values, JSONL — one sample per line). The
    /// first frame after SUBSCRIBE_ACK carries the full snapshot.
    MetricsDelta {
        /// Changed samples as metrics JSONL (may be empty).
        text: String,
    },
    /// `0x3f`, server → client. A typed refusal; the server closes the
    /// session after sending it (except for benign idle teardown).
    Error {
        /// One of [`error_code`].
        code: u64,
        /// Human-readable detail.
        message: String,
    },
}

impl Message {
    fn opcode(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0x01,
            Message::HelloAck { .. } => 0x02,
            Message::Batch { .. } => OP_BATCH,
            Message::Resume { .. } => 0x04,
            Message::BatchSeq { .. } => OP_BATCH_SEQ,
            Message::Subscribe { .. } => 0x06,
            Message::Stats => 0x10,
            Message::Allocation => 0x11,
            Message::Shutdown => 0x14,
            Message::CostCurves { .. } => 0x15,
            Message::Apply { .. } => 0x16,
            Message::StatsReply { .. } => 0x20,
            Message::AllocationReply { .. } => 0x21,
            Message::ShutdownReply { .. } => 0x24,
            Message::CostCurvesReply { .. } => 0x25,
            Message::ApplyReply { .. } => 0x26,
            Message::ResumeAck { .. } => 0x27,
            Message::SubscribeAck { .. } => 0x28,
            Message::EpochEventFrame { .. } => 0x29,
            Message::MetricsDelta { .. } => 0x2a,
            Message::Error { .. } => 0x3f,
        }
    }
}

/// BATCH's opcode byte.
pub(crate) const OP_BATCH: u8 = 0x03;
/// BATCH_SEQ's opcode byte.
pub(crate) const OP_BATCH_SEQ: u8 = 0x05;

/// Seeds of the four checksum lanes.
const LANE_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];
/// Multipliers of the four checksum lanes (odd, so each step is a
/// bijection).
const LANE_MULS: [u64; 4] = [
    0x9e37_79b1_85eb_ca87,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca77_c2b2_ae63,
];
/// Seed and multiplier of the final fold.
const FOLD_SEED: u64 = 0x2545_f491_4f6c_dd1d;
const FOLD_MUL: u64 = 0x27d4_eb2f_1656_67c5;

/// One checksum step; see the module docs.
#[inline(always)]
fn mix(h: u64, word: u64, mul: u64) -> u64 {
    (h ^ word).wrapping_mul(mul).rotate_left(31)
}

/// The first eight bytes of `bytes` as a little-endian word.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// The frame checksum over `head` (version, opcode, the four length
/// bytes) and `payload`, as the module docs define it.
fn checksum(head: [u8; 6], payload: &[u8]) -> u32 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = payload.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, le_word(&block[8 * i..]), LANE_MULS[i]);
        }
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        lanes[i] = mix(lanes[i], le_word(word), LANE_MULS[i]);
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    let mut first = [0u8; 8];
    first[..6].copy_from_slice(&head);
    let mut acc = mix(FOLD_SEED, u64::from_le_bytes(first), FOLD_MUL);
    acc = mix(acc, u64::from_le_bytes(tail), FOLD_MUL);
    for lane in lanes {
        acc = mix(acc, lane, FOLD_MUL);
    }
    ((acc >> 32) ^ (acc & 0xffff_ffff)) as u32
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn push_string(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked payload cursor; every read is fallible.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// An 8-byte little-endian word.
    fn word(&mut self) -> Result<u64, WireError> {
        let word = self.buf[self.pos..]
            .first_chunk::<8>()
            .ok_or(WireError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(*word))
    }

    fn varint(&mut self) -> Result<u64, WireError> {
        let rest = &self.buf[self.pos..];
        let mut value: u64 = 0;
        for (i, &byte) in rest.iter().take(10).enumerate() {
            let part = u64::from(byte & 0x7f);
            // The 10th byte may only contribute the final bit of a u64.
            if i == 9 && part > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= part << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(value);
            }
        }
        Err(if rest.len() < 10 {
            WireError::Truncated
        } else {
            WireError::VarintOverflow
        })
    }

    /// A varint that must fit `usize`: a size or count.
    fn size(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.varint()?).map_err(|_| WireError::BadPayload("size overflows usize"))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.varint()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Truncated)?;
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| WireError::BadPayload("invalid utf-8"))?;
        self.pos = end;
        Ok(s.to_string())
    }

    fn finish(self) -> Result<(), WireError> {
        let rest = self.buf.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(rest))
        }
    }
}

/// Appends an engine config: tenants, units, blocks per unit, epoch
/// length, shards, the decay's `f64::to_bits` image (bit-exact),
/// hysteresis, the policy byte and the objective's spec string.
fn push_config(p: &mut Vec<u8>, config: &EngineConfig) {
    for n in [
        config.tenants,
        config.cache.units,
        config.cache.blocks_per_unit,
        config.epoch_length,
        config.shards,
    ] {
        push_varint(p, n as u64);
    }
    push_varint(p, config.decay.to_bits());
    push_varint(p, config.min_repartition_units as u64);
    let code = POLICY_CODES.iter().position(|p| *p == config.policy);
    p.push(code.expect("every policy has a wire code") as u8);
    push_string(p, &config.objective.name());
}

/// Appends a BATCH payload: the record count, then `tenant, block`
/// per record (the block as an 8-byte little-endian word).
fn push_batch(p: &mut Vec<u8>, records: &[(u64, u64)]) {
    // Worst case up front, so the per-byte pushes never reallocate.
    p.reserve(10 + 18 * records.len());
    push_varint(p, records.len() as u64);
    for &(tenant, block) in records {
        push_varint(p, tenant);
        p.extend_from_slice(&block.to_le_bytes());
    }
}

/// Appends a BATCH_SEQ payload: the record count, then per record its
/// position (the first absolute, the rest as the gap to the previous
/// one — 0 = the next position, the dense-stream common case), tenant
/// and block (an 8-byte little-endian word).
fn push_batch_seq(p: &mut Vec<u8>, records: &[(u64, u64, u64)]) -> Result<(), WireError> {
    p.reserve(10 + 28 * records.len());
    push_varint(p, records.len() as u64);
    let mut prev: Option<u64> = None;
    for &(pos, tenant, block) in records {
        let coded = match prev {
            None => pos,
            Some(last) => pos
                .checked_sub(last)
                .and_then(|d| d.checked_sub(1))
                .ok_or(WireError::BadPayload("positions not increasing"))?,
        };
        prev = Some(pos);
        push_varint(p, coded);
        push_varint(p, tenant);
        p.extend_from_slice(&block.to_le_bytes());
    }
    Ok(())
}

/// Appends `msg`'s payload to `p`.
fn push_payload(p: &mut Vec<u8>, msg: &Message) -> Result<(), WireError> {
    match msg {
        Message::Hello { binding } => {
            // 0 = mux, t+1 = bound to tenant t.
            push_varint(p, binding.map_or(0, |t| t + 1));
        }
        Message::HelloAck { config, token } => {
            push_config(p, config);
            push_varint(p, *token);
        }
        Message::Batch { records } => push_batch(p, records),
        Message::Resume { token } => push_varint(p, *token),
        Message::BatchSeq { records } => push_batch_seq(p, records)?,
        Message::Stats | Message::Allocation | Message::Shutdown => {}
        Message::Subscribe {
            metrics_interval_ms,
        } => push_varint(p, *metrics_interval_ms),
        Message::CostCurves { objective, trace } => {
            push_string(p, objective);
            push_varint(p, *trace);
        }
        Message::Apply {
            units,
            predicted_bits,
            trace,
        } => {
            push_varint(p, units.len() as u64);
            for &u in units {
                push_varint(p, u);
            }
            match predicted_bits {
                Some(bits) => {
                    p.push(1);
                    push_varint(p, *bits);
                }
                None => p.push(0),
            }
            push_varint(p, *trace);
        }
        Message::StatsReply { stats } => {
            push_varint(p, stats.connections);
            push_varint(p, stats.active_sessions);
            push_varint(p, stats.frames);
            push_varint(p, stats.batches);
            push_varint(p, stats.records);
            push_varint(p, stats.decode_errors);
            push_varint(p, stats.epochs);
        }
        Message::AllocationReply { units } => {
            push_varint(p, units.len() as u64);
            for &u in units {
                push_varint(p, u);
            }
        }
        Message::CostCurvesReply {
            curves,
            profile_nanos,
        } => {
            push_varint(p, curves.len() as u64);
            for curve in curves {
                push_varint(p, curve.accesses);
                push_varint(p, curve.misses);
                push_varint(p, curve.samples_bits.len() as u64);
                for &bits in &curve.samples_bits {
                    push_varint(p, bits);
                }
            }
            push_varint(p, *profile_nanos);
        }
        Message::ApplyReply {
            repartitioned,
            units_moved,
            actuate_nanos,
        } => {
            p.push(u8::from(*repartitioned));
            push_varint(p, *units_moved);
            push_varint(p, *actuate_nanos);
        }
        Message::ResumeAck { config, resume_pos } => {
            push_config(p, config);
            push_varint(p, *resume_pos);
        }
        Message::SubscribeAck { header } => push_string(p, header),
        Message::EpochEventFrame { line } => push_string(p, line),
        Message::MetricsDelta { text } => push_string(p, text),
        Message::ShutdownReply { summary, digest } => {
            push_string(p, summary);
            push_varint(p, *digest);
        }
        Message::Error { code, message } => {
            push_varint(p, *code);
            push_string(p, message);
        }
    }
    Ok(())
}

/// Reads what [`push_config`] wrote and refuses any shape that fails
/// [`EngineConfig::validate`], so a receiver can build the engine it
/// names without a panic.
fn read_config(c: &mut Cur<'_>) -> Result<EngineConfig, WireError> {
    let tenants = c.size()?;
    let cache = cps_core::CacheConfig {
        units: c.size()?,
        blocks_per_unit: c.size()?,
    };
    let epoch_length = c.size()?;
    let shards = c.size()?;
    let decay = f64::from_bits(c.varint()?);
    let min_repartition_units = c.size()?;
    let policy = *POLICY_CODES
        .get(usize::from(c.u8()?))
        .ok_or(WireError::BadPayload("unknown policy code"))?;
    let objective = cps_core::Objective::parse(&c.string()?)
        .map_err(|_| WireError::BadPayload("unrecognized objective spec"))?;
    let config = EngineConfig {
        tenants,
        cache,
        epoch_length,
        shards,
        decay,
        min_repartition_units,
        policy,
        objective,
    };
    config.validate().map_err(WireError::BadConfig)?;
    Ok(config)
}

/// Walks a BATCH payload once, appending `make(tenant, block)` per
/// record to `out` — the server's reused record buffer, or a fresh
/// `Vec` behind [`decode`].
pub(crate) fn read_batch<R>(
    payload: &[u8],
    out: &mut Vec<R>,
    mut make: impl FnMut(u64, u64) -> R,
) -> Result<(), WireError> {
    let mut c = Cur::new(payload);
    let count = c.varint()? as usize;
    // A varint of at least one byte and a word per record: refuse
    // counts the payload cannot possibly hold before reserving.
    if count > payload.len() / 9 {
        return Err(WireError::BadPayload("record count exceeds payload"));
    }
    out.reserve(count);
    // Tenants below 128 are one-byte varints, so such a payload is
    // `count` records of 9 bytes each, read without a varint loop or a
    // bounds check per field. Anything else takes the general walk.
    let records = &payload[c.pos..];
    if records.len() == 9 * count && records.iter().step_by(9).all(|&b| b < 0x80) {
        for record in records.chunks_exact(9) {
            let (tenant, block) = record.split_first().expect("9 bytes");
            out.push(make(u64::from(*tenant), le_word(block)));
        }
        return Ok(());
    }
    for _ in 0..count {
        let tenant = c.varint()?;
        out.push(make(tenant, c.word()?));
    }
    c.finish()
}

/// Walks a BATCH_SEQ payload once, appending
/// `make(position, tenant, block)` per record to `out`. Positions
/// reach `make` strictly increasing — the delta coding cannot express
/// anything else, and a sum past `u64::MAX` is refused here.
pub(crate) fn read_batch_seq<R>(
    payload: &[u8],
    out: &mut Vec<R>,
    mut make: impl FnMut(u64, u64, u64) -> R,
) -> Result<(), WireError> {
    let mut c = Cur::new(payload);
    let count = c.varint()? as usize;
    // Two varints of at least one byte each and a word per record.
    if count > payload.len() / 10 {
        return Err(WireError::BadPayload("record count exceeds payload"));
    }
    out.reserve(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let coded = c.varint()?;
        let pos = match prev {
            None => coded,
            Some(last) => last
                .checked_add(1)
                .and_then(|next| next.checked_add(coded))
                .ok_or(WireError::BadPayload("position overflows u64"))?,
        };
        prev = Some(pos);
        let tenant = c.varint()?;
        out.push(make(pos, tenant, c.word()?));
    }
    c.finish()
}

/// Decodes the payload of a frame [`open_frame`] has verified.
pub(crate) fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Message, WireError> {
    if opcode == OP_BATCH {
        let mut records = Vec::new();
        read_batch(payload, &mut records, |tenant, block| (tenant, block))?;
        return Ok(Message::Batch { records });
    }
    if opcode == OP_BATCH_SEQ {
        let mut records = Vec::new();
        read_batch_seq(payload, &mut records, |pos, tenant, block| {
            (pos, tenant, block)
        })?;
        return Ok(Message::BatchSeq { records });
    }
    let mut c = Cur::new(payload);
    let msg = match opcode {
        0x01 => {
            let raw = c.varint()?;
            Message::Hello {
                binding: raw.checked_sub(1),
            }
        }
        0x02 => {
            let config = read_config(&mut c)?;
            let token = c.varint()?;
            Message::HelloAck { config, token }
        }
        0x04 => Message::Resume { token: c.varint()? },
        0x06 => Message::Subscribe {
            metrics_interval_ms: c.varint()?,
        },
        0x10 => Message::Stats,
        0x11 => Message::Allocation,
        0x14 => Message::Shutdown,
        0x15 => {
            let objective = c.string()?;
            if cps_core::Objective::parse(&objective).is_err() {
                return Err(WireError::BadPayload("unrecognized objective spec"));
            }
            Message::CostCurves {
                objective,
                trace: c.varint()?,
            }
        }
        0x16 => {
            let count = c.varint()? as usize;
            if count > payload.len() {
                return Err(WireError::BadPayload("unit count exceeds payload"));
            }
            let mut units = Vec::with_capacity(count);
            for _ in 0..count {
                units.push(c.varint()?);
            }
            let predicted_bits = match c.u8()? {
                0 => None,
                1 => Some(c.varint()?),
                _ => return Err(WireError::BadPayload("bad predicted-cost flag")),
            };
            Message::Apply {
                units,
                predicted_bits,
                trace: c.varint()?,
            }
        }
        0x20 => Message::StatsReply {
            stats: ServeStats {
                connections: c.varint()?,
                active_sessions: c.varint()?,
                frames: c.varint()?,
                batches: c.varint()?,
                records: c.varint()?,
                decode_errors: c.varint()?,
                epochs: c.varint()?,
            },
        },
        0x21 => {
            let count = c.varint()? as usize;
            if count > payload.len() {
                return Err(WireError::BadPayload("unit count exceeds payload"));
            }
            let mut units = Vec::with_capacity(count);
            for _ in 0..count {
                units.push(c.varint()?);
            }
            Message::AllocationReply { units }
        }
        0x25 => {
            let count = c.varint()? as usize;
            // At least three varint bytes per curve (accesses, misses,
            // sample count): refuse impossible counts before reserving.
            if count > payload.len() / 3 {
                return Err(WireError::BadPayload("curve count exceeds payload"));
            }
            let mut curves = Vec::with_capacity(count);
            for _ in 0..count {
                let accesses = c.varint()?;
                let misses = c.varint()?;
                let samples = c.varint()? as usize;
                // One varint byte minimum per sample.
                if samples > payload.len() {
                    return Err(WireError::BadPayload("sample count exceeds payload"));
                }
                let mut samples_bits = Vec::with_capacity(samples);
                for _ in 0..samples {
                    samples_bits.push(c.varint()?);
                }
                curves.push(WireCurve {
                    accesses,
                    misses,
                    samples_bits,
                });
            }
            Message::CostCurvesReply {
                curves,
                profile_nanos: c.varint()?,
            }
        }
        0x26 => {
            let repartitioned = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::BadPayload("bad repartitioned flag")),
            };
            Message::ApplyReply {
                repartitioned,
                units_moved: c.varint()?,
                actuate_nanos: c.varint()?,
            }
        }
        0x27 => {
            let config = read_config(&mut c)?;
            let resume_pos = c.varint()?;
            Message::ResumeAck { config, resume_pos }
        }
        0x28 => Message::SubscribeAck {
            header: c.string()?,
        },
        0x29 => Message::EpochEventFrame { line: c.string()? },
        0x2a => Message::MetricsDelta { text: c.string()? },
        0x24 => Message::ShutdownReply {
            summary: c.string()?,
            digest: c.varint()?,
        },
        0x3f => Message::Error {
            code: c.varint()?,
            message: c.string()?,
        },
        other => return Err(WireError::UnknownOpcode(other)),
    };
    c.finish()?;
    Ok(msg)
}

/// Writes one complete frame into `frame` (cleared first, so a caller
/// can reuse one buffer across frames): the header's room, the payload
/// `payload` appends in place, then the length and checksum patched
/// in. On an error the buffer holds no frame.
fn frame_into(
    frame: &mut Vec<u8>,
    opcode: u8,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    frame.clear();
    frame.extend_from_slice(&[0; HEADER_LEN]);
    let len = match payload(frame) {
        Ok(()) => frame.len() - HEADER_LEN,
        Err(e) => {
            frame.clear();
            return Err(e);
        }
    };
    if len > MAX_PAYLOAD {
        frame.clear();
        return Err(WireError::PayloadTooLarge(len));
    }
    let len = (len as u32).to_le_bytes();
    let head = [PROTOCOL_VERSION, opcode, len[0], len[1], len[2], len[3]];
    let sum = checksum(head, &frame[HEADER_LEN..]);
    frame[0..2].copy_from_slice(&MAGIC);
    frame[2..8].copy_from_slice(&head);
    frame[8..12].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Encodes one message as a complete frame. Refuses (never panics on)
/// a payload over [`MAX_PAYLOAD`] with [`WireError::PayloadTooLarge`],
/// so a server can downgrade an unframeable reply to a typed `Error`
/// frame instead of dying mid-connection.
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut frame = Vec::new();
    frame_into(&mut frame, msg.opcode(), |p| push_payload(p, msg))?;
    // The batch writers reserve for the worst case; a caller that keeps
    // the frame should not keep that too.
    frame.shrink_to_fit();
    Ok(frame)
}

/// Encodes a BATCH frame straight from a record slice into `frame`, a
/// buffer the caller keeps across calls — byte for byte what
/// [`encode`] makes of a [`Message::Batch`] holding the same records,
/// without building one.
pub fn encode_batch_into(frame: &mut Vec<u8>, records: &[(u64, u64)]) -> Result<(), WireError> {
    frame_into(frame, OP_BATCH, |p| {
        push_batch(p, records);
        Ok(())
    })
}

/// The [`encode_batch_into`] of BATCH_SEQ: `(position, tenant, block)`
/// records, positions strictly increasing (refused otherwise).
pub fn encode_batch_seq_into(
    frame: &mut Vec<u8>,
    records: &[(u64, u64, u64)],
) -> Result<(), WireError> {
    frame_into(frame, OP_BATCH_SEQ, |p| push_batch_seq(p, records))
}

/// Verifies the frame at the front of `buf` — magic, version, length
/// bounds, checksum, in that order — and returns its opcode, its
/// payload and the bytes the frame occupies. [`WireError::Truncated`]
/// means exactly "`buf` ends before the frame does": a stream reader
/// may wait for more bytes and ask again.
pub(crate) fn open_frame(buf: &[u8]) -> Result<(u8, &[u8], usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if buf[0..2] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    if buf[2] != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge(len));
    }
    if buf.len() < HEADER_LEN + len {
        return Err(WireError::Truncated);
    }
    let expected = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let found = checksum([buf[2], buf[3], buf[4], buf[5], buf[6], buf[7]], payload);
    if expected != found {
        return Err(WireError::ChecksumMismatch { expected, found });
    }
    Ok((buf[3], payload, HEADER_LEN + len))
}

/// Decodes one frame from the front of `buf`, returning the message
/// and the bytes consumed. Cross-validates magic, version, length
/// bounds, checksum, opcode, and exact payload consumption — in that
/// order, so corruption anywhere maps to a typed error.
pub fn decode(buf: &[u8]) -> Result<(Message, usize), WireError> {
    let (opcode, payload, used) = open_frame(buf)?;
    Ok((decode_payload(opcode, payload)?, used))
}

/// Writes one message to a stream as a single frame.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), WireError> {
    let frame = encode(msg)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| WireError::Io(e.kind(), e.to_string()))
}

/// Reads exactly one frame from a stream and decodes it.
///
/// EOF *between* frames is [`WireError::Closed`] (a clean disconnect);
/// EOF *inside* a frame is [`WireError::Truncated`]. A read timeout
/// *between* frames surfaces as [`WireError::Io`] with the kind
/// preserved (see [`WireError::is_timeout`] — the idle signal); a
/// timeout after part of a frame arrived is [`WireError::Stalled`] —
/// a slow sender mid-frame is not idle.
pub fn read_message(r: &mut impl Read) -> Result<Message, WireError> {
    let mut header = [0u8; HEADER_LEN];
    read_full(r, &mut header, true)?;
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + len, 0);
    read_full(r, &mut frame[HEADER_LEN..], false)?;
    decode(&frame).map(|(msg, _)| msg)
}

/// Fills `buf` completely. `at_boundary` distinguishes a clean close /
/// idle timeout (no bytes read yet) from mid-frame truncation / stall.
fn read_full(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && !(at_boundary && filled == 0) =>
            {
                // The deadline fired with a frame half-read: the header
                // arrived but not the payload, or some header bytes and
                // not the rest. That is a stalled sender, not an idle
                // session.
                return Err(WireError::Stalled { filled });
            }
            Err(e) => return Err(WireError::Io(e.kind(), e.to_string())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_config() -> EngineConfig {
        EngineConfig::new(4, cps_core::CacheConfig::new(128, 1), 5_000)
            .shards(3)
            .hysteresis(2)
            .policy(Policy::EqualBaseline)
    }

    /// A frame with a correct checksum around an arbitrary version,
    /// opcode and payload, so the checks *behind* the checksum can be
    /// reached.
    fn raw_frame(version: u8, opcode: u8, payload: &[u8]) -> Vec<u8> {
        let len = (payload.len() as u32).to_le_bytes();
        let head = [version, opcode, len[0], len[1], len[2], len[3]];
        let mut f = MAGIC.to_vec();
        f.extend_from_slice(&head);
        f.extend_from_slice(&checksum(head, payload).to_le_bytes());
        f.extend_from_slice(payload);
        f
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Hello { binding: None },
            Message::Hello { binding: Some(0) },
            Message::Hello { binding: Some(3) },
            Message::HelloAck {
                config: sample_config(),
                token: 0xdead_beef_cafe,
            },
            Message::Batch { records: vec![] },
            Message::Batch {
                records: vec![(0, 42), (3, u64::MAX), (1, 0)],
            },
            Message::Resume { token: 0 },
            Message::Resume { token: u64::MAX },
            Message::BatchSeq { records: vec![] },
            Message::BatchSeq {
                // Dense run, then a gap, then a large jump.
                records: vec![
                    (7, 0, 42),
                    (8, 1, 9),
                    (9, 0, 3),
                    (40, 2, 0),
                    (1 << 40, 3, 1),
                ],
            },
            Message::ResumeAck {
                config: sample_config(),
                resume_pos: 123_456,
            },
            Message::Stats,
            Message::Allocation,
            Message::Shutdown,
            Message::Subscribe {
                metrics_interval_ms: 0,
            },
            Message::Subscribe {
                metrics_interval_ms: 1_000,
            },
            Message::CostCurves {
                objective: "miss-ratio".to_string(),
                trace: 0,
            },
            Message::CostCurves {
                objective: "utility:0.25".to_string(),
                trace: 0x9e37_79b9,
            },
            Message::CostCurves {
                objective: "value-weighted:1.5,2,0.25".to_string(),
                trace: u64::MAX,
            },
            Message::Apply {
                units: vec![64, 0, 32],
                predicted_bits: None,
                trace: 0,
            },
            Message::Apply {
                units: vec![10, 4],
                predicted_bits: Some(1.5f64.to_bits()),
                trace: 7_700_001,
            },
            Message::StatsReply {
                stats: ServeStats {
                    connections: 7,
                    active_sessions: 2,
                    frames: 900,
                    batches: 850,
                    records: 1 << 40,
                    decode_errors: 1,
                    epochs: 19,
                },
            },
            Message::AllocationReply {
                units: vec![64, 32, 32, 0],
            },
            Message::ShutdownReply {
                summary: "{\"v\":3,\"kind\":\"summary\"}".into(),
                digest: u64::MAX,
            },
            Message::CostCurvesReply {
                curves: vec![],
                profile_nanos: 0,
            },
            Message::CostCurvesReply {
                curves: vec![
                    WireCurve {
                        accesses: 250,
                        misses: 31,
                        samples_bits: vec![1.0f64.to_bits(), 0.5f64.to_bits(), 0.0f64.to_bits()],
                    },
                    WireCurve {
                        accesses: 0,
                        misses: 0,
                        samples_bits: vec![],
                    },
                ],
                profile_nanos: 123_456,
            },
            Message::ApplyReply {
                repartitioned: true,
                units_moved: 7,
                actuate_nanos: 4_200,
            },
            Message::ApplyReply {
                repartitioned: false,
                units_moved: 0,
                actuate_nanos: 0,
            },
            Message::SubscribeAck {
                header: "{\"v\":3,\"kind\":\"run\",\"engine\":\"single\"}".into(),
            },
            Message::EpochEventFrame {
                line: "{\"v\":3,\"kind\":\"epoch\",\"epoch\":0,\"start\":0}".into(),
            },
            Message::EpochEventFrame {
                line: String::new(),
            },
            Message::MetricsDelta {
                text: "{\"name\":\"cps_serve_records_total\",\"value\":99}\n".into(),
            },
            Message::MetricsDelta {
                text: String::new(),
            },
            Message::Error {
                code: error_code::BAD_TENANT,
                message: "tenant 9 out of range — naughty \"client\"".into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in all_messages() {
            let frame = encode(&msg).unwrap();
            let (back, consumed) = decode(&frame).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
            assert_eq!(consumed, frame.len(), "{msg:?}");
        }
    }

    #[test]
    fn decode_consumes_one_frame_from_a_stream_prefix() {
        let a = encode(&Message::Stats).unwrap();
        let b = encode(&Message::AllocationReply { units: vec![3] }).unwrap();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let (first, used) = decode(&stream).unwrap();
        assert_eq!(first, Message::Stats);
        assert_eq!(used, a.len());
        let (second, used2) = decode(&stream[used..]).unwrap();
        assert_eq!(second, Message::AllocationReply { units: vec![3] });
        assert_eq!(used2, b.len());
    }

    #[test]
    fn truncations_are_typed_errors() {
        let frame = encode(&Message::Batch {
            records: vec![(1, 2), (3, 4)],
        })
        .unwrap();
        for cut in 0..frame.len() {
            let err = decode(&frame[..cut]).expect_err("prefix must not decode");
            assert_eq!(err, WireError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        let frame = encode(&Message::HelloAck {
            config: sample_config(),
            token: 99,
        })
        .unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let err = decode(&bad).expect_err("corrupt frame must not decode");
                if byte < 2 {
                    assert!(
                        matches!(err, WireError::BadMagic(_)),
                        "byte {byte} bit {bit}"
                    );
                } else if byte == 2 {
                    // The version is checked before the checksum it
                    // feeds.
                    assert!(
                        matches!(err, WireError::BadVersion(_)),
                        "bit {bit}: {err:?}"
                    );
                } else {
                    // The checksum covers version, opcode, length, and
                    // payload; a flipped length can also trip the bounds
                    // checks before the checksum is verified.
                    assert!(
                        matches!(
                            err,
                            WireError::ChecksumMismatch { .. }
                                | WireError::Truncated
                                | WireError::FrameTooLarge(_)
                        ),
                        "byte {byte} bit {bit}: {err:?}"
                    );
                }
            }
        }
    }

    /// A tenant of 128 or more is a multi-byte varint, so its batch
    /// takes the general walk: it round-trips, and a payload whose
    /// length only looks like `count` 9-byte records is refused as the
    /// walk finds it, not read at a fixed stride.
    #[test]
    fn batches_with_wide_tenants_take_the_varint_walk() {
        let msg = Message::Batch {
            records: vec![(5, 1), (200, 2), (1 << 40, 3), (127, u64::MAX)],
        };
        let frame = encode(&msg).unwrap();
        assert_eq!(decode(&frame).unwrap(), (msg, frame.len()));
        // Two "records" in 18 bytes: a 2-byte tenant and a word, then a
        // tenant and 7 bytes of a word.
        let mut payload = vec![2, 0x81, 0x01];
        payload.extend_from_slice(&[9; 16]);
        let mut out = Vec::new();
        let read = read_batch(&payload, &mut out, |t, b| (t, b));
        assert!(matches!(read, Err(WireError::Truncated)), "{read:?}");
        // The same length with one-byte tenants is two whole records.
        payload[1..3].copy_from_slice(&[3, 4]);
        out.clear();
        read_batch(&payload, &mut out, |t, b| (t, b)).unwrap();
        assert_eq!(
            out,
            [
                (3, u64::from_le_bytes([4, 9, 9, 9, 9, 9, 9, 9])),
                (9, 0x0909_0909_0909_0909)
            ]
        );
    }

    /// The same sweep over batch payloads of every length class the
    /// checksum distinguishes: whole 32-byte blocks, the 1-3 whole
    /// words after them, the byte tail, and nothing at all.
    #[test]
    fn every_single_bit_flip_of_a_batch_payload_fails_the_checksum() {
        for records in [0u64, 1, 3, 7, 40, 41, 42, 43, 44, 45, 46, 47, 48] {
            let frame = encode(&Message::Batch {
                records: (0..records).map(|i| (i % 4, i << 37 | i)).collect(),
            })
            .unwrap();
            for byte in HEADER_LEN..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        matches!(decode(&bad), Err(WireError::ChecksumMismatch { .. })),
                        "{records} records, byte {byte} bit {bit}"
                    );
                }
            }
        }
    }

    /// Two v8 frames, byte for byte: the checksum is defined over
    /// fixed-width little-endian words, so no platform and no refactor
    /// may produce anything else. The BATCH payload is 55 bytes (one
    /// block, two whole words, a 7-byte tail), the BATCH_SEQ one 75
    /// (two blocks, one whole word, a 3-byte tail). An independent
    /// implementation of the module docs' definition agrees, and
    /// reproduces the v7 fixtures these replaced.
    #[test]
    fn pinned_v8_frames() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let batch = Message::Batch {
            records: (0..6u64)
                .map(|i| (i % 4, 0x0123_4567_89ab ^ (i << 21)))
                .collect(),
        };
        assert_eq!(
            hex(&encode(&batch).unwrap()),
            concat!(
                "435308033700000059f4010c",
                "0600ab8967452301000001ab8947452301000002ab8927452301000003",
                "ab8907452301000000ab89e7452301000001ab89c74523010000",
            )
        );
        let batch_seq = Message::BatchSeq {
            records: vec![
                (7, 0, 42),
                (8, 1, 9),
                (9, 0, 3),
                (40, 2, 0),
                (1 << 40, 3, 1),
                (u64::MAX, 3, u64::MAX),
            ],
        };
        assert_eq!(
            hex(&encode(&batch_seq).unwrap()),
            concat!(
                "435308054b000000c0bcccff",
                "0607002a0000000000000000010900000000000000000003000000000000",
                "001e020000000000000000d7ffffffff1f030100000000000000feffffff",
                "ffdfffffff0103ffffffffffffffff",
            )
        );
    }

    /// HELLO_ACK and RESUME_ACK, pinned byte for byte for two engine
    /// configs: `cps serve --tenants 4 --units 32` with every other
    /// flag at its default, and `--tenants 2 --units 64 --bpu 2
    /// --epoch 5000 --shards 2 --decay 0.2 --hysteresis 3 --objective
    /// value-weighted:1,2 --baseline natural`. Each frame decodes to
    /// its config and re-encodes to the same bytes.
    #[test]
    fn pinned_hello_ack_frames() {
        fn unhex(s: &str) -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        }
        let cases = [
            (
                concat!(
                    "43530802250000009819a272",
                    "042001904e0180808080808080f03f01000a6d6973732d726174696f",
                    "ef9bafcdf8acd19101",
                ),
                concat!(
                    "435308271f0000001f4141d0",
                    "042001904e0180808080808080f03f01000a6d6973732d726174696f",
                    "c0c407",
                ),
                (4, 1, 10_000, Policy::Optimal, "miss-ratio"),
            ),
            (
                concat!(
                    "435308022d0000003ebf4c3b",
                    "0240028827029ab3e6cc99b3e6e43f0302",
                    "1276616c75652d77656967687465643a312c32",
                    "ef9bafcdf8acd19101",
                ),
                concat!(
                    "4353082727000000ce25923c",
                    "0240028827029ab3e6cc99b3e6e43f0302",
                    "1276616c75652d77656967687465643a312c32",
                    "c0c407",
                ),
                (2, 2, 5_000, Policy::NaturalBaseline, "value-weighted:1,2"),
            ),
        ];
        for (hello_ack, resume_ack, (tenants, shards, epoch, policy, objective)) in cases {
            for hex in [hello_ack, resume_ack] {
                let frame = unhex(hex);
                let (msg, used) = decode(&frame).unwrap();
                assert_eq!(used, frame.len());
                assert_eq!(encode(&msg).unwrap(), frame, "{msg:?}");
                let config = match msg {
                    Message::HelloAck { config, token } => {
                        assert_eq!(token, 0x0123_4567_89ab_cdef);
                        config
                    }
                    Message::ResumeAck { config, resume_pos } => {
                        assert_eq!(resume_pos, 123_456);
                        config
                    }
                    other => panic!("not a handshake reply: {other:?}"),
                };
                assert_eq!(config.tenants, tenants);
                assert_eq!(config.shards, shards);
                assert_eq!(config.epoch_length, epoch);
                assert_eq!(config.policy, policy);
                assert_eq!(config.objective.to_string(), objective);
            }
        }
    }

    /// The slice encoders are the routine `encode` runs for the two
    /// batch verbs, and they reuse the caller's buffer.
    #[test]
    fn slice_encoders_match_encode_and_reuse_the_buffer() {
        let mut frame = vec![0xaa; 3];
        let records = vec![(0, 42), (3, u64::MAX), (1, 0)];
        encode_batch_into(&mut frame, &records).unwrap();
        assert_eq!(frame, encode(&Message::Batch { records }).unwrap());
        let records = vec![(7, 0, 42), (8, 1, 9), (40, 2, 0)];
        encode_batch_seq_into(&mut frame, &records).unwrap();
        assert_eq!(frame, encode(&Message::BatchSeq { records }).unwrap());
        // A refused frame leaves nothing behind to send by mistake.
        let err = encode_batch_seq_into(&mut frame, &[(5, 0, 1), (5, 0, 2)]).unwrap_err();
        assert_eq!(err, WireError::BadPayload("positions not increasing"));
        assert!(frame.is_empty());
    }

    #[test]
    fn unknown_version_and_opcode_are_refused() {
        assert_eq!(
            decode(&raw_frame(9, 0x10, &[])).unwrap_err(),
            WireError::BadVersion(9)
        );
        // 0x12/0x13 and their replies 0x22/0x23 were EPOCH and
        // SNAPSHOT until version 6.
        for opcode in [0x77, 0x12, 0x13, 0x22, 0x23] {
            assert_eq!(
                decode(&raw_frame(PROTOCOL_VERSION, opcode, &[])).unwrap_err(),
                WireError::UnknownOpcode(opcode)
            );
        }
        // A v5 HELLO_ACK — the same config behind an engine-kind byte —
        // is named by its version, never parsed as a current config.
        let mut v5_payload = vec![1];
        push_config(&mut v5_payload, &sample_config());
        push_varint(&mut v5_payload, 99);
        assert_eq!(
            decode(&raw_frame(5, 0x02, &v5_payload)).unwrap_err(),
            WireError::BadVersion(5)
        );
        // A v6 SHUTDOWN_REPLY carried the whole journal; it is refused
        // by version, not read as a summary and a digest.
        let mut v6_payload = Vec::new();
        push_string(&mut v6_payload, "{\"v\":3,\"kind\":\"run\"}\n");
        assert_eq!(
            decode(&raw_frame(6, 0x24, &v6_payload)).unwrap_err(),
            WireError::BadVersion(6)
        );
        // A v7 BATCH sent its block as a varint; a v8 reader would take
        // the next record's bytes for the block's, so it is refused by
        // version first.
        let mut v7_payload = vec![1, 2];
        push_varint(&mut v7_payload, 0x0123_4567_89ab);
        assert_eq!(
            decode(&raw_frame(7, OP_BATCH, &v7_payload)).unwrap_err(),
            WireError::BadVersion(7)
        );
    }

    /// A version 4 peer's frame — same header layout, FNV-1a 32 over
    /// version|opcode|length|payload — is named for what it is: the
    /// version is checked before the sum that depends on it.
    #[test]
    fn a_well_formed_v4_frame_is_a_bad_version_not_a_bad_checksum() {
        let payload = [0u8]; // HELLO, mux binding
        let len = (payload.len() as u32).to_le_bytes();
        let mut f = MAGIC.to_vec();
        f.extend_from_slice(&[4, 0x01]);
        f.extend_from_slice(&len);
        let fnv1a = f[2..].iter().chain(&payload).fold(0x811c_9dc5u32, |h, &b| {
            (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        f.extend_from_slice(&fnv1a.to_le_bytes());
        f.extend_from_slice(&payload);
        assert_eq!(decode(&f).unwrap_err(), WireError::BadVersion(4));
        let mut stream = std::io::Cursor::new(f);
        assert_eq!(
            read_message(&mut stream).unwrap_err(),
            WireError::BadVersion(4)
        );
    }

    #[test]
    fn trailing_bytes_inside_the_payload_are_refused() {
        // A Stats frame whose payload claims one extra byte.
        let f = raw_frame(PROTOCOL_VERSION, 0x10, &[0]);
        assert_eq!(decode(&f).unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn oversized_declared_length_is_refused_before_allocation() {
        let mut f = encode(&Message::Stats).unwrap();
        f[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&f).unwrap_err(),
            WireError::FrameTooLarge(_)
        ));
    }

    #[test]
    fn varint_overflow_is_typed() {
        // An 11-byte all-continuation varint inside a Hello payload.
        let f = raw_frame(PROTOCOL_VERSION, 0x01, &[0xff; 11]);
        assert_eq!(decode(&f).unwrap_err(), WireError::VarintOverflow);
        // Ten bytes whose last carries more than a u64's final bit.
        let mut payload = [0xff; 10];
        payload[9] = 0x02;
        let f = raw_frame(PROTOCOL_VERSION, 0x01, &payload);
        assert_eq!(decode(&f).unwrap_err(), WireError::VarintOverflow);
        // The same run cut short inside the frame is a truncation.
        let f = raw_frame(PROTOCOL_VERSION, 0x01, &[0xff; 4]);
        assert_eq!(decode(&f).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn stream_reader_round_trips_and_flags_clean_close() {
        let msgs = all_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode(m).unwrap());
        }
        let mut cursor = std::io::Cursor::new(stream);
        for expected in &msgs {
            let got = read_message(&mut cursor).unwrap();
            assert_eq!(&got, expected);
        }
        assert_eq!(read_message(&mut cursor).unwrap_err(), WireError::Closed);
    }

    #[test]
    fn stream_truncation_mid_frame_is_truncated_not_closed() {
        let frame = encode(&Message::AllocationReply { units: vec![5] }).unwrap();
        let cut = frame.len() - 1;
        let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
        assert_eq!(read_message(&mut cursor).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn decay_transport_is_bit_exact() {
        for decay in [0.0, 0.25, 0.5, 0.875, 0.999_999] {
            let config = sample_config().decay(decay);
            let frame = encode(&Message::HelloAck { config, token: 1 }).unwrap();
            let (back, _) = decode(&frame).unwrap();
            let Message::HelloAck { config: got, .. } = back else {
                panic!("wrong message kind");
            };
            assert_eq!(got.decay.to_bits(), decay.to_bits());
        }
    }

    /// A handshake config the receiver could not build an engine from
    /// is refused at decode, naming the knob: every rule of
    /// `EngineConfig::validate` holds at this door.
    #[test]
    fn out_of_range_handshake_configs_are_refused() {
        let ok = EngineConfig::new(2, cps_core::CacheConfig::new(32, 1), 1_000);
        let mut huge = ok.clone();
        huge.cache = cps_core::CacheConfig {
            units: 1 << 14,
            blocks_per_unit: 1 << 14,
        };
        let bad = [
            (
                EngineConfig {
                    tenants: 0,
                    ..ok.clone()
                },
                "tenants",
            ),
            (ok.clone().shards(0), "shards"),
            (ok.clone().shards(257), "shards"),
            (huge, "units"),
            (
                EngineConfig {
                    epoch_length: 0,
                    ..ok.clone()
                },
                "epoch",
            ),
            (ok.clone().decay(1.0), "decay"),
            (ok.clone().decay(f64::NAN), "decay"),
            (
                ok.clone().objective(cps_core::Objective::ValueWeighted {
                    weights: vec![1.0, 2.0, 3.0],
                }),
                "objective",
            ),
        ];
        for (config, field) in bad {
            for msg in [
                Message::HelloAck {
                    config: config.clone(),
                    token: 1,
                },
                Message::ResumeAck {
                    config: config.clone(),
                    resume_pos: 0,
                },
            ] {
                match decode(&encode(&msg).unwrap()) {
                    Err(WireError::BadConfig(e)) => assert_eq!(e.field, field, "{config:?}"),
                    other => panic!("{config:?} decoded to {other:?}"),
                }
            }
        }
        // An objective spec the core layer does not parse.
        let mut payload = Vec::new();
        push_config(&mut payload, &ok);
        payload.truncate(payload.len() - 1 - "miss-ratio".len());
        push_string(&mut payload, "latency");
        push_varint(&mut payload, 1);
        assert_eq!(
            decode(&raw_frame(PROTOCOL_VERSION, 0x02, &payload)).unwrap_err(),
            WireError::BadPayload("unrecognized objective spec")
        );
    }

    /// Satellite fix: an unframeable payload is a typed refusal on the
    /// send path, never a panic.
    #[test]
    fn oversized_payload_is_a_typed_encode_error_not_a_panic() {
        let msg = Message::ShutdownReply {
            summary: "x".repeat(MAX_PAYLOAD + 1),
            digest: 0,
        };
        match encode(&msg) {
            Err(WireError::PayloadTooLarge(n)) => {
                assert!(n > MAX_PAYLOAD);
                assert!(WireError::PayloadTooLarge(n).to_string().contains("cap"));
            }
            other => panic!("expected PayloadTooLarge, got {other:?}"),
        }
        // write_message propagates the refusal without writing a byte.
        let mut sink = Vec::new();
        assert!(matches!(
            write_message(&mut sink, &msg),
            Err(WireError::PayloadTooLarge(_))
        ));
        assert!(sink.is_empty());
    }

    /// BATCH_SEQ deltas: non-increasing positions are refused at encode
    /// time, and a dense run costs one byte of position per record.
    #[test]
    fn batch_seq_positions_must_strictly_increase() {
        let bad = Message::BatchSeq {
            records: vec![(5, 0, 1), (5, 0, 2)],
        };
        assert!(matches!(
            encode(&bad),
            Err(WireError::BadPayload("positions not increasing"))
        ));
        let dense = Message::BatchSeq {
            records: (0..100).map(|i| (1_000 + i, 0, i)).collect(),
        };
        let sparse = Message::BatchSeq {
            records: (0..100).map(|i| (1_000 + (i << 20), 0, i)).collect(),
        };
        let dense_len = encode(&dense).unwrap().len();
        let sparse_len = encode(&sparse).unwrap().len();
        assert!(dense_len < sparse_len, "dense deltas are single bytes");
    }

    /// The decoder's side of the same rule: a delta that would carry a
    /// position past `u64::MAX` is a typed refusal, not a wrap.
    #[test]
    fn a_position_delta_past_u64_max_is_refused() {
        // Two records: position u64::MAX, then a gap of 0 after it.
        let mut payload = vec![2];
        push_varint(&mut payload, u64::MAX);
        // Tenant 0 and an all-zero block word, a zero gap, then tenant
        // and block again.
        payload.extend_from_slice(&[0; 1 + 8 + 1 + 1 + 8]);
        let f = raw_frame(PROTOCOL_VERSION, OP_BATCH_SEQ, &payload);
        assert_eq!(
            decode(&f).unwrap_err(),
            WireError::BadPayload("position overflows u64")
        );
    }

    /// Satellite fix: a timeout with a frame half-read is a typed
    /// stall, not the idle-timeout signal; a timeout before any header
    /// byte stays an idle `Io`.
    #[test]
    fn mid_frame_timeout_is_a_stall_not_idle() {
        struct PartialThenTimeout {
            data: Vec<u8>,
            pos: usize,
        }
        impl std::io::Read for PartialThenTimeout {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::from(ErrorKind::WouldBlock));
                }
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let frame = encode(&Message::AllocationReply { units: vec![5] }).unwrap();
        for cut in 1..frame.len() {
            let mut r = PartialThenTimeout {
                data: frame[..cut].to_vec(),
                pos: 0,
            };
            let err = read_message(&mut r).unwrap_err();
            assert!(err.is_stalled(), "cut at {cut}: {err:?}");
            assert!(!err.is_timeout(), "a stall is not idle");
        }
        // No bytes at all: the idle signal, not a stall.
        let mut idle = PartialThenTimeout {
            data: vec![],
            pos: 0,
        };
        let err = read_message(&mut idle).unwrap_err();
        assert!(err.is_timeout() && !err.is_stalled());
    }
}
