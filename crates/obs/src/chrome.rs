//! Chrome trace-event export: journal stage spans as a Perfetto-ready
//! timeline.
//!
//! A version-3 journal carries everything a trace viewer needs: each
//! epoch's monotonic `start` timestamp anchors the epoch on the
//! timeline, the [`StageTimings`] block gives the five pipeline stages
//! their durations (laid out sequentially — the pipeline is serial
//! within an epoch), and a cluster journal's per-node
//! [`crate::journal::NodeSpan`]s become child rows, one thread lane
//! per node. The output is the Chrome trace-event JSON object format
//! (`{"traceEvents":[...]}`) with `"X"` complete events, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Rendering is fully deterministic — same journal, same bytes — so a
//! golden test can pin the export and any drift in the layout rules is
//! a test failure, not a silent format change. Timestamps are written
//! in microseconds with exactly three fractional digits (the journal's
//! nanosecond resolution, no float formatting involved).
//!
//! [`StageTimings`]: crate::span::StageTimings

use crate::journal::{EpochEvent, Journal};
use crate::span::{Stage, StageTimings};

/// Microseconds with exactly three fractional digits: the trace-event
/// `ts`/`dur` unit, rendered from integer nanoseconds without going
/// through a float.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

fn trace_args(event: &EpochEvent) -> String {
    match event.trace {
        Some(id) => format!("{{\"epoch\":{},\"trace\":{id}}}", event.epoch),
        None => format!("{{\"epoch\":{}}}", event.epoch),
    }
}

/// Lays one [`StageTimings`] block out sequentially from `start`,
/// emitting an `"X"` complete event per nonzero stage onto `out`.
fn push_stage_events(
    out: &mut Vec<String>,
    timings: &StageTimings,
    start: u64,
    tid: usize,
    args: &str,
) {
    let mut offset = start;
    for &stage in Stage::ALL.iter() {
        let dur = timings.get(stage);
        if dur > 0 {
            out.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{tid},\"args\":{args}}}",
                stage.name(),
                micros(offset),
                micros(dur),
            ));
        }
        offset = offset.saturating_add(dur);
    }
}

/// Renders a parsed journal as Chrome trace-event JSON.
///
/// Thread lane 0 is the pipeline (the epoch's own [`StageTimings`],
/// stages laid out back to back from the epoch's `start`); a cluster
/// journal's node spans land on lanes `node + 1`, each laid out from
/// the same epoch start. Lane names are emitted as `"M"` metadata
/// events first, so viewers label the rows. Zero-duration stages are
/// skipped — they would render as invisible slivers and double the
/// file size.
///
/// The journal must already have parsed ([`Journal::parse`] enforces
/// schema version 3, which guarantees the monotonic `start` field this
/// layout depends on — version-2 journals are rejected there with a
/// clear message before export is ever attempted).
pub fn chrome_trace_json(journal: &Journal) -> String {
    let mut events: Vec<String> = Vec::new();
    // Lane metadata: the pipeline lane, then one lane per node that
    // actually appears in a span, in node order.
    let mut nodes: Vec<usize> = journal
        .epochs
        .iter()
        .flat_map(|e| e.spans.iter().map(|s| s.node))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    events.push(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"pipeline\"}}"
            .to_string(),
    );
    for &node in &nodes {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"node {node}\"}}}}",
            node + 1,
        ));
    }
    for event in &journal.epochs {
        let args = trace_args(event);
        push_stage_events(&mut events, &event.timings, event.start_nanos, 0, &args);
        for span in &event.spans {
            push_stage_events(
                &mut events,
                &span.timings,
                event.start_nanos,
                span.node + 1,
                &args,
            );
        }
    }
    let mut text = String::from("{\"traceEvents\":[\n");
    text.push_str(&events.join(",\n"));
    text.push_str("\n]}\n");
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{NodeSpan, RunHeader, RunSummary};

    fn fixture() -> Journal {
        let timings = StageTimings {
            ingest_nanos: 1_500,
            profile_nanos: 2_000,
            merge_nanos: 0,
            solve_nanos: 500,
            actuate_nanos: 250,
        };
        let mut total = StageTimings::default();
        total.merge(&timings);
        Journal {
            header: RunHeader {
                engine: "cluster".into(),
                tenants: 2,
                units: 8,
                bpu: 1,
                epoch_length: 100,
                shards: 2,
                policy: "cluster".into(),
                objective: "miss-ratio".into(),
            },
            epochs: vec![EpochEvent {
                epoch: 0,
                start_nanos: 10_000,
                objective: "miss-ratio".into(),
                allocation: vec![4, 4],
                accesses: vec![60, 40],
                misses: vec![6, 4],
                predicted_cost: Some(0.1),
                trace: Some(42),
                repartitioned: false,
                units_moved: 0,
                timings,
                spans: vec![NodeSpan {
                    node: 1,
                    timings: StageTimings {
                        profile_nanos: 800,
                        actuate_nanos: 100,
                        ..StageTimings::default()
                    },
                }],
            }],
            migrations: vec![],
            summary: RunSummary {
                epochs: 1,
                accesses: 100,
                misses: 10,
                repartitions: 0,
                units_moved: 0,
                timings: total,
            },
        }
    }

    #[test]
    fn export_is_deterministic_and_lays_stages_out_sequentially() {
        let journal = fixture();
        let a = chrome_trace_json(&journal);
        let b = chrome_trace_json(&journal);
        assert_eq!(a, b, "same journal, same bytes");
        // Pipeline lane: ingest at the epoch start, profile right
        // after it, merge skipped (zero), solve after profile.
        assert!(a.contains(
            "\"name\":\"ingest\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":10.000,\"dur\":1.500"
        ));
        assert!(a.contains(
            "\"name\":\"profile\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":11.500,\"dur\":2.000"
        ));
        assert!(
            a.contains("\"ts\":13.500,\"dur\":0.500"),
            "solve after the zero-width merge"
        );
        assert!(!a.contains("\"name\":\"merge\""), "zero stages are skipped");
        // Node 1's child span rides lane 2, anchored at the epoch start.
        assert!(a.contains("\"tid\":2,\"args\":{\"epoch\":0,\"trace\":42}"));
        assert!(a.contains("{\"name\":\"node 1\"}"));
        // Valid JSON by our own parser.
        let trimmed = a.trim_end();
        crate::json::parse(trimmed).expect("export parses as JSON");
    }

    /// The golden pin: the fixture's export, byte for byte. Any change
    /// to the layout rules — stage order, lane assignment, timestamp
    /// formatting, skip rules — must show up here as a conscious diff.
    #[test]
    fn export_is_pinned_byte_for_byte() {
        let expected = "\
{\"traceEvents\":[
{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"pipeline\"}},
{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"node 1\"}},
{\"name\":\"ingest\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":10.000,\"dur\":1.500,\"pid\":0,\"tid\":0,\"args\":{\"epoch\":0,\"trace\":42}},
{\"name\":\"profile\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":11.500,\"dur\":2.000,\"pid\":0,\"tid\":0,\"args\":{\"epoch\":0,\"trace\":42}},
{\"name\":\"solve\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":13.500,\"dur\":0.500,\"pid\":0,\"tid\":0,\"args\":{\"epoch\":0,\"trace\":42}},
{\"name\":\"actuate\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":14.000,\"dur\":0.250,\"pid\":0,\"tid\":0,\"args\":{\"epoch\":0,\"trace\":42}},
{\"name\":\"profile\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":10.000,\"dur\":0.800,\"pid\":0,\"tid\":2,\"args\":{\"epoch\":0,\"trace\":42}},
{\"name\":\"actuate\",\"cat\":\"stage\",\"ph\":\"X\",\"ts\":10.800,\"dur\":0.100,\"pid\":0,\"tid\":2,\"args\":{\"epoch\":0,\"trace\":42}}
]}
";
        assert_eq!(chrome_trace_json(&fixture()), expected);
    }
}
