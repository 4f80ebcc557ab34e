//! Stage spans: attributing epoch wall-clock to pipeline stages.
//!
//! Every engine variant closes an epoch through the same five stages;
//! [`StageTimings`] is the per-epoch block that records how long each
//! took, replacing one-off fields like a bare `solve_nanos`. The
//! attribution is *epoch-granular by design*: spans are measured around
//! boundary operations (fan-out, solve, apply), never around
//! individual accesses, so instrumentation cost stays off the
//! per-access hot path.

use std::fmt;
use std::time::Instant;

/// The engine pipeline's stage taxonomy, in pipeline order.
///
/// What each stage means per producer (see DESIGN.md §3.9 and §3.11):
///
/// | stage | one shard | N shards | cluster coordinator |
/// |---|---|---|---|
/// | `Ingest` | — (inline) | — | final per-node buffer flush |
/// | `Profile` | window close | tenant fan-out (profile + serve) + window close | per-node curve exports |
/// | `Merge` | — | — | — |
/// | `Solve` | DP re-solve | DP re-solve | two-level DP + placement step |
/// | `Actuate` | cache apply | cache apply | per-node budget pushes |
///
/// No producer books `Merge`; journal v3 keeps its field, which reads 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Routing/buffering accesses toward their shard or node.
    Ingest,
    /// Window profiling: observation (and serving) and window close.
    Profile,
    /// Booked by no producer; journal v3's `merge` field, which reads 0.
    Merge,
    /// The DP re-solve (curve building + dynamic program).
    Solve,
    /// Applying the chosen allocation.
    Actuate,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Ingest,
        Stage::Profile,
        Stage::Merge,
        Stage::Solve,
        Stage::Actuate,
    ];

    /// Stable lowercase name (used as the journal key and metric
    /// suffix).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Profile => "profile",
            Stage::Merge => "merge",
            Stage::Solve => "solve",
            Stage::Actuate => "actuate",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock nanoseconds one epoch spent in each pipeline stage.
///
/// A uniform block on every epoch record, identical in shape across
/// engine variants; stages an engine does not exercise stay 0 (no
/// producer books `merge`, for instance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Ingest time charged to this epoch: a one-shard engine's inline
    /// serving, a cluster coordinator's record routing.
    pub ingest_nanos: u64,
    /// Window profiling time (fan-out work or window close).
    pub profile_nanos: u64,
    /// Always 0: no engine merges profiles (journal v3 keeps the field).
    pub merge_nanos: u64,
    /// Re-solve time: cost-curve building plus the DP itself
    /// (0 if the boundary skipped its solve).
    pub solve_nanos: u64,
    /// Actuation/broadcast time.
    pub actuate_nanos: u64,
}

impl StageTimings {
    /// Nanoseconds attributed to `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        match stage {
            Stage::Ingest => self.ingest_nanos,
            Stage::Profile => self.profile_nanos,
            Stage::Merge => self.merge_nanos,
            Stage::Solve => self.solve_nanos,
            Stage::Actuate => self.actuate_nanos,
        }
    }

    /// Adds `nanos` to `stage`.
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        let slot = match stage {
            Stage::Ingest => &mut self.ingest_nanos,
            Stage::Profile => &mut self.profile_nanos,
            Stage::Merge => &mut self.merge_nanos,
            Stage::Solve => &mut self.solve_nanos,
            Stage::Actuate => &mut self.actuate_nanos,
        };
        *slot += nanos;
    }

    /// Folds another epoch's timings into this one (stage-wise sum).
    pub fn merge(&mut self, other: &StageTimings) {
        for stage in Stage::ALL {
            self.add(stage, other.get(stage));
        }
    }

    /// Total attributed nanoseconds across all stages (saturating: a
    /// tampered journal's stages can add past `u64::MAX`).
    pub fn total_nanos(&self) -> u64 {
        Stage::ALL
            .iter()
            .fold(0, |total: u64, &s| total.saturating_add(self.get(s)))
    }

    /// `(stage, nanos)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL.into_iter().map(move |s| (s, self.get(s)))
    }
}

/// A started span clock: charge its elapsed time to a stage when the
/// spanned work completes.
///
/// # Examples
///
/// ```
/// use cps_obs::{Stage, StageTimings, Stopwatch};
/// let mut timings = StageTimings::default();
/// let clock = Stopwatch::start();
/// // ... do the solve ...
/// clock.record(&mut timings, Stage::Solve);
/// assert!(timings.solve_nanos > 0);
/// ```
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed nanoseconds since the start.
    pub fn elapsed_nanos(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Charges the elapsed time to `stage`, consuming the clock.
    pub fn record(self, timings: &mut StageTimings, stage: Stage) {
        timings.add(stage, self.elapsed_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_cover_the_struct() {
        let mut t = StageTimings::default();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            t.add(stage, (i + 1) as u64);
        }
        assert_eq!(t.ingest_nanos, 1);
        assert_eq!(t.profile_nanos, 2);
        assert_eq!(t.merge_nanos, 3);
        assert_eq!(t.solve_nanos, 4);
        assert_eq!(t.actuate_nanos, 5);
        assert_eq!(t.total_nanos(), 15);
        for (stage, nanos) in t.iter() {
            assert_eq!(t.get(stage), nanos);
        }
    }

    #[test]
    fn merge_sums_stage_wise() {
        let mut a = StageTimings {
            ingest_nanos: 1,
            profile_nanos: 2,
            merge_nanos: 3,
            solve_nanos: 4,
            actuate_nanos: 5,
        };
        a.merge(&a.clone());
        assert_eq!(a.total_nanos(), 30);
        assert_eq!(a.solve_nanos, 8);
    }

    #[test]
    fn stopwatch_records_into_a_stage() {
        let mut t = StageTimings::default();
        let clock = Stopwatch::start();
        std::hint::black_box((0..100).sum::<u64>());
        clock.record(&mut t, Stage::Merge);
        assert!(t.merge_nanos > 0);
        assert_eq!(t.solve_nanos, 0);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["ingest", "profile", "merge", "solve", "actuate"]
        );
        assert_eq!(Stage::Solve.to_string(), "solve");
    }
}
