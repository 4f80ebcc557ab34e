//! Journal rendering and the report-identity canonical form.
//!
//! A served run must be *provably* the same run a client would have
//! executed in process: `cps bench-net` replays a stream over the
//! socket, receives the server's journal back, runs the identical
//! engine locally, and compares the two. Wall clock can never match
//! between two executions, so identity is defined over the journal's
//! **stable fields** — exactly the fields the engines' own
//! determinism guarantees cover (allocations, per-tenant counts, solve
//! verdicts, actuation record, totals) and *not* the [`StageTimings`]
//! blocks (or the backpressure deltas old queued-ingest journals
//! carry), which are wall clock by definition.
//!
//! [`identity_of_report`] and [`identity_of_journal`] render both
//! sides into one canonical text (timings zeroed, backpressure
//! dropped); two runs are report-identical iff the strings are
//! byte-equal. Serializing through the stable `cps-obs` journal schema
//! means float formatting (`predicted_cost`) is Rust's shortest
//! round-trip on both sides — bit-equal inputs give byte-equal lines.

use cps_engine::EngineReport;
use cps_obs::{EpochEvent, Journal, RunHeader, RunSummary, StageTimings};

/// Renders the full journal text for a run: header line, one line per
/// epoch, summary line — exactly what `cps replay-online --journal`
/// writes and `cps inspect` parses.
pub fn render_journal(header: &RunHeader, report: &EngineReport) -> String {
    let mut text = String::new();
    text.push_str(&header.to_json_line());
    text.push('\n');
    for event in report.journal_events() {
        text.push_str(&event.to_json_line());
        text.push('\n');
    }
    text.push_str(&report.run_summary().to_json_line());
    text.push('\n');
    text
}

fn canonical_lines(
    header: &RunHeader,
    events: impl IntoIterator<Item = EpochEvent>,
    summary: &RunSummary,
) -> String {
    let mut text = String::new();
    text.push_str(&header.to_json_line());
    text.push('\n');
    for mut event in events {
        event.timings = StageTimings::default();
        event.backpressure = None;
        event.start_nanos = 0;
        event.trace = None;
        event.spans = Vec::new();
        text.push_str(&event.to_json_line());
        text.push('\n');
    }
    let mut summary = summary.clone();
    summary.timings = StageTimings::default();
    text.push_str(&summary.to_json_line());
    text.push('\n');
    text
}

/// The canonical identity text of an in-process run.
pub fn identity_of_report(header: &RunHeader, report: &EngineReport) -> String {
    canonical_lines(header, report.journal_events(), &report.run_summary())
}

/// The canonical identity text of a parsed journal (e.g. one received
/// over the wire from `cps serve`).
pub fn identity_of_journal(journal: &Journal) -> String {
    canonical_lines(
        &journal.header,
        journal.epochs.iter().cloned(),
        &journal.summary,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::CacheConfig;
    use cps_engine::{Engine, EngineConfig};

    fn feed() -> Vec<(usize, u64)> {
        (0..2_500u64).map(|i| ((i % 2) as usize, i % 30)).collect()
    }

    fn header(engine: &str, shards: usize) -> RunHeader {
        RunHeader {
            engine: engine.to_string(),
            tenants: 2,
            units: 16,
            bpu: 1,
            epoch_length: 500,
            shards,
            policy: "none".to_string(),
            objective: "miss-ratio".to_string(),
        }
    }

    #[test]
    fn rendered_journal_parses_and_validates() {
        let mut engine = Engine::new(EngineConfig::new(CacheConfig::new(16, 1), 500), 2, 1);
        engine.run(feed());
        let report = engine.finish();
        let text = render_journal(&header("single", 1), &report);
        let journal = Journal::parse(&text).expect("round trip");
        assert_eq!(journal.epochs.len(), report.epochs.len());
        assert_eq!(journal.header.engine, "single");
    }

    /// The whole point: two executions of the same run canonicalize to
    /// the same bytes whatever their wall clock, while a genuinely
    /// different run does not.
    #[test]
    fn identity_ignores_wall_clock_but_not_substance() {
        let cfg = EngineConfig::new(CacheConfig::new(16, 1), 500);
        let run = |stream: Vec<(usize, u64)>| {
            let mut engine = Engine::new(cfg.clone(), 2, 1);
            engine.run(stream);
            engine.finish()
        };
        let first = run(feed());
        // Same control trajectory and counts, different timings.
        let second = run(feed());

        let h = header("single", 1);
        let a = identity_of_report(&h, &first);
        let b = identity_of_report(&h, &second);
        assert_eq!(a, b, "wall clock is excluded");

        // Round-tripping through the wire journal preserves identity.
        let journal = Journal::parse(&render_journal(&h, &second)).unwrap();
        assert_eq!(identity_of_journal(&journal), a);

        // A different stream is a different identity.
        let other = run((0..2_500u64).map(|i| ((i % 2) as usize, i % 7)).collect());
        let c = identity_of_report(&h, &other);
        assert_ne!(a, c, "different runs must not collide");

        // A different header is a different identity too.
        let d = identity_of_report(&header("sharded", 4), &second);
        assert_ne!(b, d);
    }
}
