//! The epoch event journal: a stable JSONL record of one engine run.
//!
//! A journal is plain text, one JSON object per line, in three kinds:
//!
//! 1. exactly one **run header** first (`"kind":"run"`) — geometry and
//!    knobs;
//! 2. one **epoch event** per epoch boundary (`"kind":"epoch"`), in
//!    order — the allocation in force, per-tenant realized counts, the
//!    solve verdict and the [`StageTimings`] block;
//! 3. exactly one **summary** last (`"kind":"summary"`) — run totals as
//!    the producer summed them ([`RunSummary::add`]), so a consumer can
//!    verify the epoch lines add up ([`Journal::validate`]); a journal
//!    that fails validation was truncated, reordered, or written by a
//!    drifted producer.
//!
//! Cluster runs additionally write **migration events**
//! (`"kind":"migration"`) directly after the epoch line whose boundary
//! moved a tenant from one node to another. Single-engine journals
//! simply never carry them; readers of either accept both.
//!
//! Every producer — the engine, the daemon and the cluster coordinator —
//! streams its journal: each epoch line (and a cluster boundary's
//! migration line) is rendered once, as the boundary is booked, and
//! written out through a [`JournalStream`](crate::stream::JournalStream),
//! which keeps only the running totals and the canonical digest. The
//! lines are the ones [`Journal::render`] writes; [`Journal::canonical`]
//! is the wall-clock-free form two runs are diffed by, and
//! [`Journal::digest`] its fingerprint.
//!
//! # Schema (version 3)
//!
//! Every line carries `"v":3` ([`JOURNAL_VERSION`]). Fields are only
//! ever *added* within a version; removing or re-typing one bumps it.
//! Version 2 added the required `objective` field to epoch lines (the
//! spec of the objective the boundary solved under, cross-checked
//! against the run header by [`Journal::validate`]). Version 3 added
//! the live-telemetry fields: the required `start` field (the epoch's
//! monotonic start timestamp in nanoseconds since the run began, the
//! anchor for Chrome trace export), the `trace` id stamped by a
//! cluster coordinator (null for flat runs), and the per-node `spans`
//! breakdown (child [`StageTimings`] per cluster node, null for flat
//! runs). Version-1 and version-2 journals are rejected with a clear
//! message naming both versions rather than read with silently-guessed
//! timestamps. The epoch line's `backpressure` field is always null:
//! only the retired queued engine ever filled it, and it is still
//! written so version-3 bytes stay unchanged. Readers ignore it.
//!
//! ```text
//! run       {"v","kind":"run","engine","tenants","units","bpu",
//!            "epoch_length","shards","policy","objective"}
//! epoch     {"v","kind":"epoch","epoch","start":u,"objective",
//!            "alloc":[u..],"accesses":[u..],
//!            "misses":[u..],"predicted_cost":f|null,"trace":u|null,
//!            "repartitioned":b,
//!            "units_moved":u,"timings":{"ingest","profile","merge",
//!            "solve","actuate"},"spans":[{"node":u,"timings":{..}}..]|null,
//!            "backpressure":null}
//! migration {"v","kind":"migration","epoch","tenant","from","to",
//!            "gain":f|null}
//! summary   {"v","kind":"summary","epochs","accesses","misses",
//!            "repartitions","units_moved","timings":{..}}
//! ```
//!
//! Counts are exact integers; the only float is `predicted_cost`
//! (written with Rust's shortest round-trip formatting). Miss ratios
//! are deliberately *not* stored — consumers derive them from counts,
//! so totals checks never chase float rounding.

use crate::json::{escape_json, field, parse, str_field, usize_field, JsonValue};
use crate::span::{Stage, StageTimings};
use crate::stream::{fnv1a, FNV1A_BASIS};
use std::fmt::{self, Display, Write};

/// Current journal schema version; see the module docs for the format.
pub const JOURNAL_VERSION: u64 = 3;

/// The run header: first line of every journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunHeader {
    /// Engine front end: `single`, `sharded` or `cluster` (`queued` in
    /// journals of the retired queued engine).
    pub engine: String,
    /// Number of tenants.
    pub tenants: usize,
    /// Cache capacity in allocation units.
    pub units: usize,
    /// Blocks per unit.
    pub bpu: usize,
    /// Configured accesses per epoch.
    pub epoch_length: usize,
    /// Shard count (1 for the single engine).
    pub shards: usize,
    /// Allocation policy name.
    pub policy: String,
    /// Objective name.
    pub objective: String,
}

/// One cluster node's share of an epoch's wall clock: the child span a
/// coordinator collected from node `node` under the epoch's trace id.
/// Flat (single-engine) journals never carry these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeSpan {
    /// The node the timings came from.
    pub node: usize,
    /// The node's stage timings for the epoch.
    pub timings: StageTimings,
}

/// One epoch boundary: the journal's unit of record, booked by the
/// engine or the cluster coordinator as the epoch closes.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochEvent {
    /// Epoch index, from 0.
    pub epoch: usize,
    /// Monotonic start of the epoch, in nanoseconds since the run
    /// began. Non-decreasing across the journal; the anchor Chrome
    /// trace export lays stage spans out from. Wall clock, like
    /// `timings` and `spans`: zeroed by [`Journal::canonical`].
    pub start_nanos: u64,
    /// Spec of the objective the boundary solved under (e.g.
    /// `miss-ratio`, `utility:0.5`); must equal the run header's.
    pub objective: String,
    /// Allocation (units) in force during the epoch.
    pub allocation: Vec<usize>,
    /// Per-tenant accesses served.
    pub accesses: Vec<u64>,
    /// Per-tenant misses among them.
    pub misses: Vec<u64>,
    /// DP-predicted cost of the allocation chosen at the end of the
    /// epoch; `None` if the solve was skipped or infeasible.
    pub predicted_cost: Option<f64>,
    /// Trace id a cluster coordinator stamped on the epoch and
    /// propagated to every node it drove (`None` for flat runs).
    pub trace: Option<u64>,
    /// Whether the boundary repartitioned the cache.
    pub repartitioned: bool,
    /// Units the boundary's proposal would move.
    pub units_moved: usize,
    /// Per-stage wall clock of the epoch.
    pub timings: StageTimings,
    /// Per-node child spans (cluster runs only; empty for flat runs).
    pub spans: Vec<NodeSpan>,
}

/// Sum of `values` on top of `total`, `None` past `u64::MAX`.
fn checked_sum(total: u64, values: &[u64]) -> Option<u64> {
    values.iter().try_fold(total, |sum, &v| sum.checked_add(v))
}

impl EpochEvent {
    /// Access-weighted miss ratio of the epoch (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        let acc = checked_sum(0, &self.accesses).unwrap_or(u64::MAX);
        let mis = checked_sum(0, &self.misses).unwrap_or(u64::MAX);
        if acc == 0 {
            0.0
        } else {
            mis as f64 / acc as f64
        }
    }
}

/// One tenant migration at a cluster epoch boundary: the coordinator
/// moved `tenant`'s home from node `from` to node `to` because the
/// two-level objective improved beyond the migration threshold, or
/// because the old placement had no feasible split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MigrationEvent {
    /// The epoch whose closing boundary made the move and applied the
    /// tenant's budget on `to`; its accesses route there from epoch
    /// `epoch + 1` on.
    pub epoch: usize,
    /// The migrated tenant.
    pub tenant: usize,
    /// Node the tenant left.
    pub from: usize,
    /// Node the tenant joined.
    pub to: usize,
    /// Predicted relative objective gain that justified the move
    /// (`None` for a feasibility rescue).
    pub gain: Option<f64>,
}

impl MigrationEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let gain = match self.gain {
            Some(g) if g.is_finite() => format!("{g}"),
            _ => "null".to_string(),
        };
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"migration\",\"epoch\":{},\"tenant\":{},\
             \"from\":{},\"to\":{},\"gain\":{gain}}}",
            self.epoch, self.tenant, self.from, self.to,
        )
    }
}

/// The summary line: run totals as the producer computed them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of epoch lines the journal should carry.
    pub epochs: usize,
    /// Total accesses across tenants and epochs.
    pub accesses: u64,
    /// Total misses among them.
    pub misses: u64,
    /// Epoch boundaries that repartitioned.
    pub repartitions: usize,
    /// Units moved across all applied repartitions.
    pub units_moved: u64,
    /// Stage-wise sum of every epoch's timings.
    pub timings: StageTimings,
}

/// A run total that does not fit in 64 bits. No run serves that many
/// accesses, so the epoch lines were tampered with or corrupted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TotalOverflow {
    /// The epoch whose counts overflowed the running total.
    pub epoch: usize,
    /// The overflowing total: `accesses`, `misses`, `units_moved` or a
    /// stage name.
    pub field: &'static str,
}

impl std::fmt::Display for TotalOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {}: the run's `{}` total overflows 64 bits",
            self.epoch, self.field
        )
    }
}

impl std::error::Error for TotalOverflow {}

impl RunSummary {
    /// The run's access-weighted miss ratio (0 when it served nothing).
    pub fn miss_ratio(&self) -> f64 {
        match self.accesses {
            0 => 0.0,
            accesses => self.misses as f64 / accesses as f64,
        }
    }

    /// Adds one epoch to the totals a producer's summary line holds and
    /// [`Journal::validate`] recomputes. Only applied repartitions count
    /// toward `units_moved`; a total past `u64::MAX` is refused.
    pub fn add(&mut self, e: &EpochEvent) -> Result<(), TotalOverflow> {
        let overflow = |field| TotalOverflow {
            epoch: e.epoch,
            field,
        };
        let s = self;
        s.epochs += 1;
        s.accesses = checked_sum(s.accesses, &e.accesses).ok_or_else(|| overflow("accesses"))?;
        s.misses = checked_sum(s.misses, &e.misses).ok_or_else(|| overflow("misses"))?;
        if e.repartitioned {
            s.repartitions += 1;
            s.units_moved = s
                .units_moved
                .checked_add(e.units_moved as u64)
                .ok_or_else(|| overflow("units_moved"))?;
        }
        for (stage, nanos) in e.timings.iter() {
            s.timings
                .get(stage)
                .checked_add(nanos)
                .ok_or_else(|| overflow(stage.name()))?;
            s.timings.add(stage, nanos);
        }
        Ok(())
    }
}

/// One parsed journal line.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalLine {
    /// The run header.
    Header(RunHeader),
    /// An epoch event.
    Epoch(EpochEvent),
    /// A tenant migration (cluster runs only).
    Migration(MigrationEvent),
    /// The trailing summary.
    Summary(RunSummary),
}

/// A `timings` object: every stage, in [`Stage::ALL`] order.
struct Timings<'a>(&'a StageTimings);

impl Display for Timings<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &stage) in Stage::ALL.iter().enumerate() {
            let open = if i == 0 { "{" } else { "," };
            write!(f, "{open}\"{}\":{}", stage.name(), self.0.get(stage))?;
        }
        f.write_str("}")
    }
}

/// A JSON array of `values`.
struct List<'a, T>(&'a [T]);

impl<T: Display> Display for List<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            write!(f, "{}{v}", if i == 0 { "[" } else { "," })?;
        }
        f.write_str(if self.0.is_empty() { "[]" } else { "]" })
    }
}

/// An epoch's `spans`: `null` when there are none.
struct Spans<'a>(&'a [NodeSpan]);

impl Display for Spans<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("null");
        }
        for (i, s) in self.0.iter().enumerate() {
            let open = if i == 0 { "[" } else { "," };
            let timings = Timings(&s.timings);
            write!(f, "{open}{{\"node\":{},\"timings\":{timings}}}", s.node)?;
        }
        f.write_str("]")
    }
}

/// An epoch line and its canonical form, written side by side: the
/// text between wall-clock values is shared, and each wall-clock value
/// goes to the canonical line as its zero.
#[derive(Default)]
struct Twin {
    line: String,
    canonical: String,
    /// Where the line's text not yet copied to `canonical` begins.
    shared: usize,
}

impl Twin {
    fn both(&mut self, text: fmt::Arguments<'_>) {
        let _ = self.line.write_fmt(text);
    }

    fn clock(&mut self, value: impl Display, zero: impl Display) {
        self.canonical.push_str(&self.line[self.shared..]);
        let _ = write!(self.canonical, "{zero}");
        let _ = write!(self.line, "{value}");
        self.shared = self.line.len();
    }

    fn finish(mut self) -> (String, String) {
        self.canonical.push_str(&self.line[self.shared..]);
        (self.line, self.canonical)
    }
}

impl RunHeader {
    /// Serializes the header as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"run\",\"engine\":\"{}\",\"tenants\":{},\
             \"units\":{},\"bpu\":{},\"epoch_length\":{},\"shards\":{},\"policy\":\"{}\",\
             \"objective\":\"{}\"}}",
            escape_json(&self.engine),
            self.tenants,
            self.units,
            self.bpu,
            self.epoch_length,
            self.shards,
            escape_json(&self.policy),
            escape_json(&self.objective),
        )
    }
}

impl EpochEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        self.lines().0
    }

    /// The event's line and, from the same render, its canonical form:
    /// the line with its wall-clock values — `start`, `trace`,
    /// `timings` and `spans` — zeroed, as [`Journal::canonical`] writes
    /// it.
    pub fn lines(&self) -> (String, String) {
        let cost = match self.predicted_cost {
            // `{}` on f64 is Rust's shortest round-trip formatting; NaN
            // and infinities are not representable in JSON, so an
            // infeasible/absent solve is null.
            Some(c) if c.is_finite() => format!("{c}"),
            _ => "null".to_string(),
        };
        let trace = self.trace.map_or("null".to_string(), |id| id.to_string());
        let zero = StageTimings::default();
        let mut twin = Twin::default();
        twin.both(format_args!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"epoch\",\"epoch\":{},\"start\":",
            self.epoch
        ));
        twin.clock(self.start_nanos, 0);
        twin.both(format_args!(
            ",\"objective\":\"{}\",\"alloc\":{},\"accesses\":{},\"misses\":{},\
             \"predicted_cost\":{cost},\"trace\":",
            escape_json(&self.objective),
            List(&self.allocation),
            List(&self.accesses),
            List(&self.misses),
        ));
        twin.clock(trace, "null");
        twin.both(format_args!(
            ",\"repartitioned\":{},\"units_moved\":{},\"timings\":",
            self.repartitioned, self.units_moved,
        ));
        twin.clock(Timings(&self.timings), Timings(&zero));
        twin.both(format_args!(",\"spans\":"));
        twin.clock(Spans(&self.spans), "null");
        twin.both(format_args!(",\"backpressure\":null}}"));
        twin.finish()
    }
}

impl RunSummary {
    /// Serializes the summary as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"summary\",\"epochs\":{},\"accesses\":{},\
             \"misses\":{},\"repartitions\":{},\"units_moved\":{},\"timings\":{}}}",
            self.epochs,
            self.accesses,
            self.misses,
            self.repartitions,
            self.units_moved,
            Timings(&self.timings),
        )
    }
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not an unsigned integer"))
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    field(v, key)?
        .as_bool()
        .ok_or_else(|| format!("field `{key}` is not a boolean"))
}

fn u64_list_field(v: &JsonValue, key: &str) -> Result<Vec<u64>, String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` is not an array"))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| format!("field `{key}` holds a non-integer"))
        })
        .collect()
}

fn timings_field(v: &JsonValue, key: &str) -> Result<StageTimings, String> {
    let obj = field(v, key)?;
    let mut timings = StageTimings::default();
    for stage in Stage::ALL {
        timings.add(stage, u64_field(obj, stage.name())?);
    }
    Ok(timings)
}

/// Parses one journal line into its typed record.
///
/// Unknown *fields* are ignored (forward compatibility within a
/// version); an unknown `kind` or a different `v` is an error — that is
/// the schema-drift tripwire CI leans on.
pub fn parse_journal_line(line: &str) -> Result<JournalLine, String> {
    let v = parse(line)?;
    let version = u64_field(&v, "v")?;
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal version {version}, this reader speaks {JOURNAL_VERSION}"
        ));
    }
    match str_field(&v, "kind")?.as_str() {
        "run" => Ok(JournalLine::Header(RunHeader {
            engine: str_field(&v, "engine")?,
            tenants: usize_field(&v, "tenants")?,
            units: usize_field(&v, "units")?,
            bpu: usize_field(&v, "bpu")?,
            epoch_length: usize_field(&v, "epoch_length")?,
            shards: usize_field(&v, "shards")?,
            policy: str_field(&v, "policy")?,
            objective: str_field(&v, "objective")?,
        })),
        "epoch" => {
            let cost_value = field(&v, "predicted_cost")?;
            let predicted_cost = if cost_value.is_null() {
                None
            } else {
                Some(
                    cost_value
                        .as_f64()
                        .ok_or("field `predicted_cost` is not a number")?,
                )
            };
            let trace_value = field(&v, "trace")?;
            let trace = if trace_value.is_null() {
                None
            } else {
                Some(
                    trace_value
                        .as_u64()
                        .ok_or("field `trace` is not an unsigned integer")?,
                )
            };
            let spans_value = field(&v, "spans")?;
            let spans = if spans_value.is_null() {
                Vec::new()
            } else {
                spans_value
                    .as_array()
                    .ok_or("field `spans` is not an array")?
                    .iter()
                    .map(|item| {
                        Ok(NodeSpan {
                            node: usize_field(item, "node")?,
                            timings: timings_field(item, "timings")?,
                        })
                    })
                    .collect::<Result<Vec<NodeSpan>, String>>()?
            };
            Ok(JournalLine::Epoch(EpochEvent {
                epoch: usize_field(&v, "epoch")?,
                start_nanos: u64_field(&v, "start")?,
                objective: str_field(&v, "objective")?,
                allocation: u64_list_field(&v, "alloc")?
                    .into_iter()
                    .map(|u| u as usize)
                    .collect(),
                accesses: u64_list_field(&v, "accesses")?,
                misses: u64_list_field(&v, "misses")?,
                predicted_cost,
                trace,
                repartitioned: bool_field(&v, "repartitioned")?,
                units_moved: usize_field(&v, "units_moved")?,
                timings: timings_field(&v, "timings")?,
                spans,
            }))
        }
        "migration" => {
            let gain_value = field(&v, "gain")?;
            let gain = if gain_value.is_null() {
                None
            } else {
                Some(gain_value.as_f64().ok_or("field `gain` is not a number")?)
            };
            Ok(JournalLine::Migration(MigrationEvent {
                epoch: usize_field(&v, "epoch")?,
                tenant: usize_field(&v, "tenant")?,
                from: usize_field(&v, "from")?,
                to: usize_field(&v, "to")?,
                gain,
            }))
        }
        "summary" => Ok(JournalLine::Summary(RunSummary {
            epochs: usize_field(&v, "epochs")?,
            accesses: u64_field(&v, "accesses")?,
            misses: u64_field(&v, "misses")?,
            repartitions: usize_field(&v, "repartitions")?,
            units_moved: u64_field(&v, "units_moved")?,
            timings: timings_field(&v, "timings")?,
        })),
        other => Err(format!("unknown journal line kind `{other}`")),
    }
}

/// One run's record — header, ordered epochs, migrations, summary —
/// as parsed from the text a producer streamed.
#[derive(Clone, Debug, PartialEq)]
pub struct Journal {
    /// The run header.
    pub header: RunHeader,
    /// Epoch events, in epoch order.
    pub epochs: Vec<EpochEvent>,
    /// Tenant migrations, in epoch order (empty for single-engine
    /// runs).
    pub migrations: Vec<MigrationEvent>,
    /// The trailing totals line.
    pub summary: RunSummary,
}

impl Journal {
    /// The journal text: the header line, each epoch line followed by
    /// that epoch's migration lines, then the summary line. Every
    /// journal a producer writes is this text, and
    /// `Journal::parse(&j.render())` gives back `j`.
    pub fn render(&self) -> String {
        self.text(false)
    }

    /// The identity text two runs are compared by: [`render`] with every
    /// wall-clock field zeroed (epoch `start`, `timings`, `trace` and
    /// `spans`; the summary's `timings`). Two runs of the same stream
    /// through the same engine — in process, over the wire, or from a
    /// trace file in any format — give byte-equal canonical text.
    ///
    /// [`render`]: Self::render
    pub fn canonical(&self) -> String {
        self.text(true)
    }

    fn text(&self, canonical: bool) -> String {
        let mut text = String::new();
        let mut push = |line: String| {
            text.push_str(&line);
            text.push('\n');
        };
        push(self.header.to_json_line());
        let mut migrations = self.migrations.iter().peekable();
        for e in &self.epochs {
            let (line, stable) = e.lines();
            push(if canonical { stable } else { line });
            while let Some(m) = migrations.next_if(|m| m.epoch == e.epoch) {
                push(m.to_json_line());
            }
        }
        let mut summary = self.summary.clone();
        if canonical {
            summary.timings = StageTimings::default();
        }
        push(summary.to_json_line());
        text
    }

    /// The canonical digest: 64-bit FNV-1a over [`canonical`] after its
    /// run header line — the fingerprint a streamed run ends with
    /// ([`RunDigest`](crate::stream::RunDigest)), equal at every shard
    /// count because only the header names the engine.
    ///
    /// [`canonical`]: Self::canonical
    pub fn digest(&self) -> u64 {
        let text = self.canonical();
        let body = text.split_once('\n').map_or("", |(_, body)| body);
        fnv1a(FNV1A_BASIS, body.as_bytes())
    }

    /// Parses a complete journal from text, enforcing the line
    /// protocol: header first, epochs in order, each migration directly
    /// after its epoch line (or that epoch's other migrations), summary
    /// last, nothing after. Blank lines are allowed; every other line
    /// must parse. A journal whose writer stopped early — no summary
    /// line, or an unterminated last line after the header that does
    /// not parse — is refused as `truncated after epoch N`, naming its
    /// last whole epoch.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut header: Option<RunHeader> = None;
        let mut epochs: Vec<EpochEvent> = Vec::new();
        let mut migrations: Vec<MigrationEvent> = Vec::new();
        let mut summary: Option<RunSummary> = None;
        let truncated = |epochs: &[EpochEvent]| match epochs.last() {
            Some(e) => format!("truncated after epoch {}", e.epoch),
            None => "truncated before the first epoch".to_string(),
        };
        for (i, raw) in text.split_inclusive('\n').enumerate() {
            let lineno = i + 1;
            let line = raw.strip_suffix('\n').unwrap_or(raw);
            let line = line.strip_suffix('\r').unwrap_or(line);
            if line.trim().is_empty() {
                continue;
            }
            let parsed = match parse_journal_line(line) {
                Ok(parsed) => parsed,
                Err(_) if header.is_some() && !raw.ends_with('\n') => {
                    return Err(truncated(&epochs))
                }
                Err(e) => return Err(format!("journal line {lineno}: {e}")),
            };
            if summary.is_some() {
                return Err(format!("journal line {lineno}: lines after the summary"));
            }
            match parsed {
                JournalLine::Header(h) => {
                    if header.is_some() {
                        return Err(format!("journal line {lineno}: second run header"));
                    }
                    if !epochs.is_empty() {
                        return Err(format!("journal line {lineno}: header after epochs"));
                    }
                    header = Some(h);
                }
                JournalLine::Epoch(e) => {
                    if header.is_none() {
                        return Err(format!("journal line {lineno}: epoch before run header"));
                    }
                    if e.epoch != epochs.len() {
                        return Err(format!(
                            "journal line {lineno}: epoch {} out of order (expected {})",
                            e.epoch,
                            epochs.len()
                        ));
                    }
                    epochs.push(e);
                }
                JournalLine::Migration(m) => {
                    if header.is_none() {
                        return Err(format!(
                            "journal line {lineno}: migration before run header"
                        ));
                    }
                    if epochs.last().map(|e| e.epoch) != Some(m.epoch) {
                        return Err(format!(
                            "journal line {lineno}: migration at epoch {} does not follow \
                             its epoch line",
                            m.epoch
                        ));
                    }
                    migrations.push(m);
                }
                JournalLine::Summary(s) => summary = Some(s),
            }
        }
        let header = header.ok_or("journal has no run header")?;
        let summary = summary.ok_or_else(|| truncated(&epochs))?;
        let journal = Journal {
            header,
            epochs,
            migrations,
            summary,
        };
        journal.validate()?;
        Ok(journal)
    }

    /// Cross-checks the epoch lines against the header and the
    /// producer's summary: tenant-vector lengths, epoch count, access
    /// and miss totals, repartition count, units moved, and stage-time
    /// totals must all match exactly, and totals that overflow 64 bits
    /// are refused. Each epoch's allocation partitions the header's
    /// units — except on a node a cluster coordinator drives: the APPLY
    /// that closes an epoch stamps it with the coordinator's trace id
    /// (never 0, so never absent), and every later epoch runs on the
    /// share it applied, which may leave units idle but never exceeds
    /// them. This is the round-trip guarantee `cps inspect` enforces.
    pub fn validate(&self) -> Result<(), String> {
        let t = self.header.tenants;
        let mut last_start = 0u64;
        let mut budgeted = false;
        for e in &self.epochs {
            if e.objective != self.header.objective {
                return Err(format!(
                    "epoch {}: objective `{}` does not match the run objective `{}`",
                    e.epoch, e.objective, self.header.objective
                ));
            }
            if e.start_nanos < last_start {
                return Err(format!(
                    "epoch {}: start {} goes backwards (previous epoch started at {})",
                    e.epoch, e.start_nanos, last_start
                ));
            }
            last_start = e.start_nanos;
            for span in &e.spans {
                // Nodes are journaled as shards (the cluster header
                // sets `shards` to its node count).
                if span.node >= self.header.shards {
                    return Err(format!(
                        "epoch {}: span node {} out of range for {} nodes",
                        e.epoch, span.node, self.header.shards
                    ));
                }
            }
            for (what, len) in [
                ("alloc", e.allocation.len()),
                ("accesses", e.accesses.len()),
                ("misses", e.misses.len()),
            ] {
                if len != t {
                    return Err(format!(
                        "epoch {}: `{what}` has {len} entries for {t} tenants",
                        e.epoch
                    ));
                }
            }
            let units = e
                .allocation
                .iter()
                .try_fold(0usize, |a, &u| a.checked_add(u));
            let fits = match units {
                Some(u) if budgeted => u <= self.header.units,
                u => u == Some(self.header.units),
            };
            if !fits {
                return Err(format!(
                    "epoch {}: allocation {:?} does not partition {} units",
                    e.epoch, e.allocation, self.header.units
                ));
            }
            budgeted |= e.trace.is_some() && self.header.engine != "cluster";
        }
        let mut last_epoch = 0;
        for m in &self.migrations {
            // `render` writes each migration after its epoch line.
            if m.epoch < last_epoch || m.epoch >= self.epochs.len() {
                return Err(format!(
                    "migration at epoch {}: out of epoch order or past the {} epochs",
                    m.epoch,
                    self.epochs.len()
                ));
            }
            last_epoch = m.epoch;
            if m.tenant >= t {
                return Err(format!(
                    "migration at epoch {}: tenant {} out of range for {t} tenants",
                    m.epoch, m.tenant
                ));
            }
            // Nodes are journaled as shards (the cluster header sets
            // `shards` to its node count).
            for (what, node) in [("from", m.from), ("to", m.to)] {
                if node >= self.header.shards {
                    return Err(format!(
                        "migration at epoch {}: `{what}` node {node} out of range for {} nodes",
                        m.epoch, self.header.shards
                    ));
                }
            }
            if m.from == m.to {
                return Err(format!(
                    "migration at epoch {}: tenant {} moves from node {} to itself",
                    m.epoch, m.tenant, m.from
                ));
            }
        }
        // What the epoch lines add up to (`d`) against the summary (`s`).
        let (mut d, s) = (RunSummary::default(), &self.summary);
        for e in &self.epochs {
            d.add(e).map_err(|overflow| overflow.to_string())?;
        }
        let checks: [(&str, u64, u64); 5] = [
            ("epochs", d.epochs as u64, s.epochs as u64),
            ("accesses", d.accesses, s.accesses),
            ("misses", d.misses, s.misses),
            ("repartitions", d.repartitions as u64, s.repartitions as u64),
            ("units_moved", d.units_moved, s.units_moved),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!(
                    "summary mismatch: epochs total {what} {got}, summary says {want}"
                ));
            }
        }
        if d.timings != s.timings {
            return Err(format!(
                "summary mismatch: stage timings {:?} vs summary {:?}",
                d.timings, s.timings
            ));
        }
        Ok(())
    }

    /// Cumulative access-weighted miss ratio over the journal (0 when
    /// the run served nothing).
    pub fn cumulative_miss_ratio(&self) -> f64 {
        self.summary.miss_ratio()
    }

    /// One tenant's per-epoch miss-ratio trajectory (0.0 for an idle
    /// epoch). Returns `None` for an out-of-range tenant.
    pub fn tenant_trajectory(&self, tenant: usize) -> Option<Vec<f64>> {
        (tenant < self.header.tenants).then(|| {
            self.epochs
                .iter()
                .map(|e| {
                    if e.accesses[tenant] == 0 {
                        0.0
                    } else {
                        e.misses[tenant] as f64 / e.accesses[tenant] as f64
                    }
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The totals of `epochs`, added up one by one.
    fn totals(epochs: &[EpochEvent]) -> Result<RunSummary, TotalOverflow> {
        epochs
            .iter()
            .try_fold(RunSummary::default(), |mut s, e| s.add(e).map(|()| s))
    }

    fn sample_journal() -> Journal {
        let header = RunHeader {
            engine: "queued".into(),
            tenants: 2,
            units: 64,
            bpu: 1,
            epoch_length: 1_000,
            shards: 2,
            policy: "Optimal".into(),
            objective: "miss-ratio".into(),
        };
        let timings = StageTimings {
            ingest_nanos: 10,
            profile_nanos: 20,
            merge_nanos: 30,
            solve_nanos: 40,
            actuate_nanos: 50,
        };
        let epochs = vec![
            EpochEvent {
                epoch: 0,
                start_nanos: 0,
                objective: "miss-ratio".into(),
                allocation: vec![32, 32],
                accesses: vec![600, 400],
                misses: vec![60, 4],
                predicted_cost: Some(0.125),
                trace: Some(7_700_001),
                repartitioned: true,
                units_moved: 8,
                timings,
                spans: vec![
                    NodeSpan {
                        node: 0,
                        timings: StageTimings {
                            profile_nanos: 7,
                            actuate_nanos: 2,
                            ..StageTimings::default()
                        },
                    },
                    NodeSpan {
                        node: 1,
                        timings: StageTimings {
                            profile_nanos: 9,
                            actuate_nanos: 1,
                            ..StageTimings::default()
                        },
                    },
                ],
            },
            EpochEvent {
                epoch: 1,
                start_nanos: 150,
                objective: "miss-ratio".into(),
                allocation: vec![40, 24],
                accesses: vec![500, 500],
                misses: vec![5, 50],
                predicted_cost: None,
                trace: None,
                repartitioned: false,
                units_moved: 0,
                timings,
                spans: vec![],
            },
        ];
        let mut total = StageTimings::default();
        total.merge(&timings);
        total.merge(&timings);
        let summary = RunSummary {
            epochs: 2,
            accesses: 2_000,
            misses: 119,
            repartitions: 1,
            units_moved: 8,
            timings: total,
        };
        Journal {
            header,
            epochs,
            migrations: vec![MigrationEvent {
                epoch: 1,
                tenant: 1,
                from: 0,
                to: 1,
                gain: Some(0.0625),
            }],
            summary,
        }
    }

    #[test]
    fn journal_round_trips_exactly() {
        let journal = sample_journal();
        assert_eq!(totals(&journal.epochs), Ok(journal.summary.clone()));
        let text = journal.render();
        let parsed = Journal::parse(&text).expect("round trip");
        assert_eq!(parsed, journal);
        assert_eq!(parsed.render(), text, "render(parse(text)) is text");
        assert!((parsed.cumulative_miss_ratio() - 119.0 / 2_000.0).abs() < 1e-12);
        // The migration sits right after the epoch it names.
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| {
                l.split("\"kind\":\"")
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap()
            })
            .collect();
        assert_eq!(kinds, ["run", "epoch", "epoch", "migration", "summary"]);
    }

    #[test]
    fn canonical_zeroes_wall_clock_and_keeps_migrations() {
        let journal = sample_journal();
        let canonical = journal.canonical();
        assert!(canonical.contains("\"kind\":\"migration\""), "{canonical}");
        assert!(!canonical.contains("\"trace\":7700001"), "{canonical}");
        assert!(!canonical.contains("\"start\":150"), "{canonical}");
        let mut slower = journal.clone();
        slower.epochs[0].timings.solve_nanos += 1_000;
        slower.summary.timings.solve_nanos += 1_000;
        assert_eq!(slower.canonical(), canonical, "wall clock is excluded");
        let mut elsewhere = journal.clone();
        elsewhere.migrations[0].to = 0;
        assert_ne!(
            elsewhere.canonical(),
            canonical,
            "a migration's `to` counts"
        );
    }

    /// The canonical line is the line of the event with its wall-clock
    /// fields zeroed, whatever they held.
    #[test]
    fn the_canonical_line_is_the_zeroed_event_line() {
        for e in sample_journal().epochs {
            let zeroed = EpochEvent {
                start_nanos: 0,
                timings: StageTimings::default(),
                trace: None,
                spans: Vec::new(),
                ..e.clone()
            };
            assert_eq!(e.lines(), (e.to_json_line(), zeroed.to_json_line()));
            assert_eq!(zeroed.lines().1, zeroed.to_json_line());
        }
    }

    #[test]
    fn a_migration_must_follow_its_epoch_line() {
        let text = sample_journal().render();
        let mut lines: Vec<&str> = text.lines().collect();
        // Migration of epoch 1 moved up between the two epoch lines.
        lines.swap(2, 3);
        let err = Journal::parse(&lines.join("\n")).unwrap_err();
        assert!(
            err.contains("line 3: migration at epoch 1 does not follow its epoch line"),
            "{err}"
        );
        // A migration naming an earlier epoch than the last line's.
        let journal = sample_journal();
        let stale = journal.render().replace(
            &journal.migrations[0].to_json_line(),
            &MigrationEvent {
                epoch: 0,
                ..journal.migrations[0]
            }
            .to_json_line(),
        );
        let err = Journal::parse(&stale).unwrap_err();
        assert!(err.contains("does not follow its epoch line"), "{err}");
    }

    #[test]
    fn a_non_null_backpressure_block_is_ignored() {
        let journal = sample_journal();
        let text = journal.render().replace(
            "\"backpressure\":null",
            "\"backpressure\":{\"pushed\":3,\"blocked\":1,\"wait_nanos\":9}",
        );
        assert_eq!(Journal::parse(&text), Ok(journal));
    }

    #[test]
    fn totals_that_overflow_are_refused_not_wrapped() {
        let mut journal = sample_journal();
        journal.epochs[0].accesses = vec![u64::MAX, 1];
        journal.summary.accesses = 1_000; // the wrapped total
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert_eq!(err, "epoch 0: the run's `accesses` total overflows 64 bits");

        let mut journal = sample_journal();
        journal.epochs[1].timings.merge_nanos = u64::MAX;
        let err = totals(&journal.epochs).unwrap_err();
        assert_eq!(
            err,
            TotalOverflow {
                epoch: 1,
                field: "merge"
            }
        );

        let mut journal = sample_journal();
        journal.epochs[0].allocation = vec![usize::MAX, 65];
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("does not partition 64 units"), "{err}");
    }

    #[test]
    fn a_coordinated_node_may_leave_units_idle_but_never_overspend() {
        // Epoch 0 carries a coordinator trace id: the epochs after it
        // run on the share that APPLY gave the node.
        let mut journal = sample_journal();
        journal.epochs[1].allocation = vec![10, 20];
        assert_eq!(Journal::parse(&journal.render()), Ok(journal.clone()));

        journal.epochs[1].allocation = vec![40, 40];
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert_eq!(
            err,
            "epoch 1: allocation [40, 40] does not partition 64 units"
        );
    }

    #[test]
    fn untraced_and_cluster_journals_partition_their_units_exactly() {
        let mut journal = sample_journal();
        journal.epochs[0].trace = None;
        journal.epochs[1].allocation = vec![10, 20];
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert_eq!(
            err,
            "epoch 1: allocation [10, 20] does not partition 64 units"
        );

        let mut journal = sample_journal();
        journal.header.engine = "cluster".into();
        journal.epochs[1].allocation = vec![10, 20];
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert_eq!(
            err,
            "epoch 1: allocation [10, 20] does not partition 64 units"
        );
    }

    #[test]
    fn every_line_kind_parses_standalone() {
        let journal = sample_journal();
        assert!(matches!(
            parse_journal_line(&journal.header.to_json_line()),
            Ok(JournalLine::Header(_))
        ));
        assert!(matches!(
            parse_journal_line(&journal.epochs[0].to_json_line()),
            Ok(JournalLine::Epoch(_))
        ));
        assert!(matches!(
            parse_journal_line(&journal.migrations[0].to_json_line()),
            Ok(JournalLine::Migration(_))
        ));
        assert!(matches!(
            parse_journal_line(&journal.summary.to_json_line()),
            Ok(JournalLine::Summary(_))
        ));
    }

    #[test]
    fn migration_lines_round_trip_and_are_validated() {
        // A gain-less migration survives the trip.
        let mut journal = sample_journal();
        journal.migrations[0].gain = None;
        let parsed = Journal::parse(&journal.render()).expect("round trip");
        assert_eq!(parsed, journal);

        // Out-of-range tenant, out-of-range node, and self-moves are
        // validation errors, not silent acceptance.
        for (patch, needle) in [
            (
                MigrationEvent {
                    epoch: 0,
                    tenant: 9,
                    from: 0,
                    to: 1,
                    gain: None,
                },
                "tenant 9 out of range",
            ),
            (
                MigrationEvent {
                    epoch: 0,
                    tenant: 0,
                    from: 0,
                    to: 7,
                    gain: None,
                },
                "`to` node 7 out of range",
            ),
            (
                MigrationEvent {
                    epoch: 0,
                    tenant: 0,
                    from: 1,
                    to: 1,
                    gain: None,
                },
                "to itself",
            ),
        ] {
            let mut bad = sample_journal();
            bad.migrations = vec![patch];
            let err = Journal::parse(&bad.render()).expect_err("must refuse");
            assert!(err.contains(needle), "{err}");
        }

        // A migration before the header breaks the line protocol.
        let lone = sample_journal().migrations[0].to_json_line();
        let err = Journal::parse(&format!("{lone}\n")).expect_err("no header");
        assert!(err.contains("migration before run header"), "{err}");
    }

    #[test]
    fn version_drift_is_rejected() {
        // A version-2 journal (pre-timestamp epochs) must be refused
        // with a message naming both versions, so `cps inspect` and
        // `--chrome-trace` can exit nonzero instead of inventing epoch
        // start times. Version 1 likewise.
        for old in [1u64, 2] {
            let line = sample_journal()
                .header
                .to_json_line()
                .replace("\"v\":3", &format!("\"v\":{old}"));
            let err = parse_journal_line(&line).unwrap_err();
            assert!(
                err.contains(&format!("journal version {old}, this reader speaks 3")),
                "{err}"
            );
        }
    }

    #[test]
    fn epoch_starts_must_not_go_backwards() {
        let mut journal = sample_journal();
        journal.epochs[1].start_nanos = 0;
        journal.epochs[0].start_nanos = 10;
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("start 0 goes backwards"), "{err}");
    }

    #[test]
    fn span_nodes_must_be_in_range() {
        let mut journal = sample_journal();
        journal.epochs[0].spans[1].node = 5;
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("span node 5 out of range"), "{err}");
    }

    #[test]
    fn flat_epochs_serialize_trace_and_spans_as_null() {
        let journal = sample_journal();
        let line = journal.epochs[1].to_json_line();
        assert!(line.contains("\"trace\":null"), "{line}");
        assert!(line.contains("\"spans\":null"), "{line}");
        // …and the cluster-stamped epoch carries both populated.
        let line0 = journal.epochs[0].to_json_line();
        assert!(line0.contains("\"trace\":7700001"), "{line0}");
        assert!(line0.contains("\"spans\":[{\"node\":0,"), "{line0}");
    }

    #[test]
    fn epoch_objective_must_match_the_header() {
        let mut journal = sample_journal();
        journal.epochs[1].objective = "maxmin".into();
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(
            err.contains(
                "epoch 1: objective `maxmin` does not match the run objective `miss-ratio`"
            ),
            "{err}"
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let line = sample_journal()
            .header
            .to_json_line()
            .replace("\"kind\":\"run\"", "\"kind\":\"mystery\"");
        assert!(parse_journal_line(&line).is_err());
    }

    #[test]
    fn unknown_fields_are_tolerated() {
        let line = sample_journal()
            .header
            .to_json_line()
            .replace("\"kind\"", "\"future_field\":7,\"kind\"");
        assert!(parse_journal_line(&line).is_ok());
    }

    /// A writer stopped at a line boundary or mid-line leaves a prefix
    /// that is refused in one line naming its last whole epoch; a whole
    /// line that does not parse is still an error on that line.
    #[test]
    fn truncated_journal_is_rejected() {
        let text = sample_journal().render();
        let ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
        let cases = [
            (ends[0], "truncated before the first epoch"),
            (ends[0] + 30, "truncated before the first epoch"),
            (ends[1], "truncated after epoch 0"),
            (ends[1] + 1, "truncated after epoch 0"),
            (ends[2] - 1, "truncated after epoch 1"),
            (ends[3], "truncated after epoch 1"),
            (text.len() - 2, "truncated after epoch 1"),
        ];
        for (cut, want) in cases {
            assert_eq!(
                Journal::parse(&text[..cut]),
                Err(want.into()),
                "cut at {cut}"
            );
        }
        let corrupt = format!("{}\n{}", &text[..ends[0] + 30], &text[ends[1]..]);
        let err = Journal::parse(&corrupt).unwrap_err();
        assert!(err.starts_with("journal line 2:"), "{err}");
    }

    #[test]
    fn totals_drift_fails_validation() {
        let mut journal = sample_journal();
        journal.summary.misses += 1;
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("misses"), "{err}");
    }

    #[test]
    fn timings_drift_fails_validation() {
        let mut journal = sample_journal();
        journal.summary.timings.solve_nanos += 1;
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("timings"), "{err}");
    }

    #[test]
    fn out_of_order_epochs_are_rejected() {
        let journal = sample_journal();
        let text = journal.render();
        let swapped: Vec<&str> = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.swap(1, 2);
            lines
        };
        let err = Journal::parse(&swapped.join("\n")).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    #[test]
    fn tenant_vector_length_mismatch_is_rejected() {
        let mut journal = sample_journal();
        journal.epochs[1].misses.push(0);
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("misses"), "{err}");
    }

    #[test]
    fn allocation_must_partition_the_cache() {
        let mut journal = sample_journal();
        journal.epochs[0].allocation = vec![32, 31];
        let err = Journal::parse(&journal.render()).unwrap_err();
        assert!(err.contains("partition"), "{err}");
    }

    #[test]
    fn trajectories_handle_idle_epochs() {
        let mut journal = sample_journal();
        journal.epochs[1].accesses = vec![1_000, 0];
        journal.epochs[1].misses = vec![55, 0];
        let trajectory = journal.tenant_trajectory(1).unwrap();
        assert_eq!(trajectory[1], 0.0, "idle epoch is 0, not NaN");
        assert!(journal.tenant_trajectory(2).is_none());
    }

    #[test]
    fn infinite_cost_becomes_null() {
        let mut journal = sample_journal();
        journal.epochs[0].predicted_cost = Some(f64::INFINITY);
        let line = journal.epochs[0].to_json_line();
        assert!(line.contains("\"predicted_cost\":null"), "{line}");
    }
}
