//! The metrics registry: named atomic instruments plus exporters.
//!
//! Instruments are cheap handles over `Arc`'d atomics, so whoever
//! holds the registry (a `/metrics` scrape, a test watching a live
//! server) reads the value the last update left, without a lock.
//! Updates are booked where a count already exists: the engine adds
//! its accesses and hits once per epoch boundary from the counts the
//! boundary tallied, and nothing on the record path touches an
//! instrument. The registry itself is only locked at registration and
//! snapshot time, never per sample.
//!
//! Three instrument kinds:
//!
//! * [`Counter`] — monotone `u64`;
//! * [`Gauge`] — signed last-written value;
//! * [`Histogram`] — log-2-bucketed `u64` samples (65 fixed buckets, so
//!   recording is one `fetch_add` with no allocation or comparison
//!   ladder).
//!
//! [`MetricsRegistry::snapshot`] freezes every instrument into a
//! [`MetricsSnapshot`], which renders as JSONL
//! ([`MetricsSnapshot::render_jsonl`]) or Prometheus text format
//! ([`MetricsSnapshot::render_prometheus`]).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not in any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins signed gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a detached gauge (not in any registry).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log-2 buckets: one for 0, one per power of two up to
/// `u64::MAX`.
const HIST_BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A log-2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds zeros; bucket `i ≥ 1` holds samples in
/// `[2^(i-1), 2^i)`. Recording a sample is a `leading_zeros` plus two
/// relaxed `fetch_add`s — cheap enough to observe per-epoch latencies
/// (and even per-access values) without a measurable slowdown.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Bucket index of a sample: 0 for 0, else `floor(log2(v)) + 1`.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Creates a detached histogram (not in any registry).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        (count > 0).then(|| self.sum() as f64 / count as f64)
    }

    /// Non-empty buckets as `(upper_bound_exclusive, count)` pairs, in
    /// ascending order. Bucket 0's bound is 1 (it holds only zeros);
    /// the last bucket's bound saturates at `u64::MAX`.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (1u64.checked_shl(i as u32).unwrap_or(u64::MAX), n))
            })
            .collect()
    }
}

/// A registered instrument.
#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    instrument: Instrument,
}

/// A named collection of instruments.
///
/// Registration is idempotent by name: asking twice for the same
/// counter returns handles over the same atomic, so independent engine
/// components can share instruments without coordination. Handles stay
/// valid (and hot-path cheap) after registration; the registry lock is
/// only taken to register or snapshot.
///
/// # Examples
///
/// ```
/// use cps_obs::MetricsRegistry;
/// let registry = MetricsRegistry::new();
/// let hits = registry.counter("cache_hits_total", "Hits served");
/// hits.add(3);
/// assert_eq!(registry.counter("cache_hits_total", "").get(), 3);
/// let snap = registry.snapshot();
/// assert!(snap.render_prometheus().contains("cache_hits_total 3"));
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, fresh: Instrument) -> Instrument {
        let mut entries = self.entries.lock().expect("registry lock");
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            return e.instrument.clone();
        }
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            instrument: fresh.clone(),
        });
        fresh
    }

    /// Registers (or retrieves) a counter.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Registers (or retrieves) a gauge.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Registers (or retrieves) a histogram.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Freezes every instrument's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("registry lock");
        let mut samples: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                help: e.help.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SampleValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    },
                },
            })
            .collect();
        samples.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { samples }
    }
}

/// One instrument's frozen value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram: total count, total sum, and non-empty
    /// `(upper_bound_exclusive, count)` buckets.
    Histogram {
        /// Number of samples.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Non-empty buckets, ascending.
        buckets: Vec<(u64, u64)>,
    },
}

/// One named frozen instrument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Registered name.
    pub name: String,
    /// Registered help line.
    pub help: String,
    /// Frozen value.
    pub value: SampleValue,
}

/// A point-in-time copy of a registry, sorted by name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Frozen instruments, sorted by name.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Looks up a frozen sample by name.
    pub fn get(&self, name: &str) -> Option<&SampleValue> {
        self.samples
            .iter()
            .find(|s| s.name == name)
            .map(|s| &s.value)
    }

    /// JSONL export: one JSON object per instrument per line.
    pub fn render_jsonl(&self) -> String {
        use crate::json::escape_json;
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                SampleValue::Counter(v) => out.push_str(&format!(
                    "{{\"metric\":\"{}\",\"kind\":\"counter\",\"value\":{v}}}\n",
                    escape_json(&s.name)
                )),
                SampleValue::Gauge(v) => out.push_str(&format!(
                    "{{\"metric\":\"{}\",\"kind\":\"gauge\",\"value\":{v}}}\n",
                    escape_json(&s.name)
                )),
                SampleValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    let b: Vec<String> = buckets
                        .iter()
                        .map(|(le, n)| format!("[{le},{n}]"))
                        .collect();
                    out.push_str(&format!(
                        "{{\"metric\":\"{}\",\"kind\":\"histogram\",\"count\":{count},\
                         \"sum\":{sum},\"buckets\":[{}]}}\n",
                        escape_json(&s.name),
                        b.join(",")
                    ));
                }
            }
        }
        out
    }

    /// Prometheus text exposition format (counters, gauges, and
    /// cumulative-bucket histograms).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            let name = prometheus_name(&s.name);
            if !s.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", s.help));
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                SampleValue::Histogram {
                    count,
                    sum,
                    buckets,
                } => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cumulative = 0u64;
                    for (le, n) in buckets {
                        cumulative += n;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
                    out.push_str(&format!("{name}_sum {sum}\n"));
                    out.push_str(&format!("{name}_count {count}\n"));
                }
            }
        }
        out
    }
}

/// Maps a registered name onto the Prometheus charset
/// (`[a-zA-Z0-9_:]`, non-digit first).
fn prometheus_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = MetricsRegistry::new();
        let c = r.counter("a_total", "things");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("depth", "queue depth");
        g.set(-3);
        assert_eq!(g.get(), -3);
        assert_eq!(r.snapshot().get("a_total"), Some(&SampleValue::Counter(5)));
        assert_eq!(r.snapshot().get("depth"), Some(&SampleValue::Gauge(-3)));
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let r = MetricsRegistry::new();
        r.counter("x", "").add(2);
        r.counter("x", "").add(3);
        assert_eq!(r.counter("x", "").get(), 5);
        assert_eq!(r.snapshot().samples.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 1_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 1_026);
        // 0 -> bucket 0 (bound 1); 1,1 -> [1,2); 2,3 -> [2,4);
        // 4,7 -> [4,8); 8 -> [8,16); 1000 -> [512,1024).
        assert_eq!(
            h.buckets(),
            vec![(1, 1), (2, 2), (4, 2), (8, 2), (16, 1), (1024, 1)]
        );
        assert!((h.mean().unwrap() - 1_026.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_of_is_floor_log2_plus_one() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn prometheus_render_has_types_and_cumulative_buckets() {
        let r = MetricsRegistry::new();
        r.counter("cps.engine.accesses_total", "Accesses served")
            .add(7);
        let h = r.histogram("solve_nanos", "DP solve time");
        h.observe(3);
        h.observe(100);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE cps_engine_accesses_total counter"));
        assert!(text.contains("cps_engine_accesses_total 7"));
        assert!(text.contains("# HELP solve_nanos DP solve time"));
        assert!(text.contains("solve_nanos_bucket{le=\"4\"} 1"));
        assert!(text.contains("solve_nanos_bucket{le=\"128\"} 2"));
        assert!(text.contains("solve_nanos_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("solve_nanos_sum 103"));
        assert!(text.contains("solve_nanos_count 2"));
    }

    #[test]
    fn jsonl_renders_every_sample() {
        let r = MetricsRegistry::new();
        r.counter("a", "").add(1);
        r.gauge("b", "").set(2);
        r.histogram("c", "").observe(5);
        let jsonl = r.snapshot().render_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("every metrics line is valid JSON");
        }
    }
}
