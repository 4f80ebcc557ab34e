//! In-memory spans around calls into each layer.
//!
//! A span is `(name, start, end, parent)`; spans nest by call order
//! (a span begun while another is open is its child). Nothing is
//! written until the run ends, and a disabled recorder records
//! nothing — the same staged replay runs once with it on and once off,
//! and the difference is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Total self time and span count of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub nanos: u64,
    pub spans: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Open(Some(id))
    }

    /// Closes the span.
    ///
    /// # Panics
    /// Panics if spans are closed out of order — a harness bug.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Self time per span name: each span's duration minus the part of
    /// it its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.nanos += (s.end_ns - s.start_ns).saturating_sub(c);
            e.spans += 1;
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
    /// complete (`"ph":"X"`) event per span, microsecond timestamps,
    /// the causing span's index under `args.parent`.
    pub fn chrome_json(&self, process_name: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::new(true);
        // root 0..100; child a 10..40 with grandchild 20..30; child b 50..70.
        r.push_raw("root", 0, 100, None);
        r.push_raw("a", 10, 40, Some(0));
        r.push_raw("leaf", 20, 30, Some(1));
        r.push_raw("a", 50, 70, Some(0));
        let st = r.self_times();
        assert_eq!(
            st["root"],
            SelfTime {
                nanos: 50,
                spans: 1
            }
        );
        assert_eq!(
            st["a"],
            SelfTime {
                nanos: 40,
                spans: 2
            }
        );
        assert_eq!(
            st["leaf"],
            SelfTime {
                nanos: 10,
                spans: 1
            }
        );
        let total: u64 = st.values().map(|s| s.nanos).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn begin_end_nest_by_call_order_and_disabled_records_nothing() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer");
        let inner = r.begin("inner");
        r.end(inner);
        r.end(outer);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
        let json = r.chrome_json("t");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));

        let mut off = Recorder::new(false);
        let s = off.begin("x");
        off.end(s);
        assert!(off.self_times().is_empty());
    }
}
