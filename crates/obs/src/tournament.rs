//! The tournament journal: a stable JSONL record of one scheme ×
//! objective tournament (`cps tournament`).
//!
//! A tournament sweeps every k-program co-run group of a study set
//! once per objective and aggregates, for each objective, the gap of
//! every non-optimal scheme behind Optimal — a Table-I-style
//! comparison generalized over the objective layer. The journal is
//! plain text, one JSON object per line:
//!
//! 1. exactly one **tournament header** first (`"kind":"tournament"`)
//!    — study size, group size, group count, cache geometry, and the
//!    objective specs swept, in order;
//! 2. one **table row** per objective × scheme
//!    (`"kind":"table"`) — the gap distribution of Optimal over that
//!    scheme under that objective, in percent.
//!
//! Lines carry the shared schema version ([`JOURNAL_VERSION`]); the
//! first line's `kind` is how `cps inspect` tells a tournament journal
//! from a run journal. Gap values are finite by construction (the
//! sweep caps them), so every float round-trips through Rust's
//! shortest formatting.

use crate::journal::JOURNAL_VERSION;
use crate::json::{escape_json, field, parse, str_field, usize_field, JsonValue};

/// The tournament header: first line of every tournament journal.
#[derive(Clone, Debug, PartialEq)]
pub struct TournamentHeader {
    /// Programs in the study set.
    pub programs: usize,
    /// Co-run group size (k).
    pub group_size: usize,
    /// Number of groups swept per objective (`C(programs, k)`).
    pub groups: usize,
    /// Cache capacity in allocation units.
    pub units: usize,
    /// Blocks per unit.
    pub bpu: usize,
    /// Objective specs swept, in sweep order.
    pub objectives: Vec<String>,
}

/// One tournament table row: the distribution of Optimal's gap over
/// one scheme under one objective, across every swept group.
#[derive(Clone, Debug, PartialEq)]
pub struct TournamentRow {
    /// Objective spec this row was swept under.
    pub objective: String,
    /// The scheme Optimal is compared against (its journal name).
    pub versus: String,
    /// Mean per-group gap, percent.
    pub mean_gap: f64,
    /// Median per-group gap, percent.
    pub median_gap: f64,
    /// Largest per-group gap, percent.
    pub max_gap: f64,
    /// Fraction of groups where Optimal is ≥ 10% ahead.
    pub improved_10pct: f64,
    /// Fraction of groups where Optimal is ≥ 20% ahead.
    pub improved_20pct: f64,
}

/// One parsed tournament journal line.
#[derive(Clone, Debug, PartialEq)]
pub enum TournamentLine {
    /// The tournament header.
    Header(TournamentHeader),
    /// A table row.
    Row(TournamentRow),
}

impl TournamentHeader {
    /// Serializes the header as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let objectives: Vec<String> = self
            .objectives
            .iter()
            .map(|o| format!("\"{}\"", escape_json(o)))
            .collect();
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"tournament\",\"programs\":{},\
             \"group_size\":{},\"groups\":{},\"units\":{},\"bpu\":{},\"objectives\":[{}]}}",
            self.programs,
            self.group_size,
            self.groups,
            self.units,
            self.bpu,
            objectives.join(","),
        )
    }
}

impl TournamentRow {
    /// Serializes the row as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"v\":{JOURNAL_VERSION},\"kind\":\"table\",\"objective\":\"{}\",\
             \"versus\":\"{}\",\"mean_gap\":{},\"median_gap\":{},\"max_gap\":{},\
             \"improved_10pct\":{},\"improved_20pct\":{}}}",
            escape_json(&self.objective),
            escape_json(&self.versus),
            self.mean_gap,
            self.median_gap,
            self.max_gap,
            self.improved_10pct,
            self.improved_20pct,
        )
    }
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    let x = field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))?;
    if !x.is_finite() {
        return Err(format!("field `{key}` is not finite"));
    }
    Ok(x)
}

/// Parses one tournament journal line into its typed record. The same
/// version discipline as the run journal: a different `v` or an
/// unknown `kind` is an error.
pub fn parse_tournament_line(line: &str) -> Result<TournamentLine, String> {
    let v = parse(line)?;
    let version = field(&v, "v")?
        .as_u64()
        .ok_or("field `v` is not an unsigned integer")?;
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal version {version}, this reader speaks {JOURNAL_VERSION}"
        ));
    }
    match str_field(&v, "kind")?.as_str() {
        "tournament" => Ok(TournamentLine::Header(TournamentHeader {
            programs: usize_field(&v, "programs")?,
            group_size: usize_field(&v, "group_size")?,
            groups: usize_field(&v, "groups")?,
            units: usize_field(&v, "units")?,
            bpu: usize_field(&v, "bpu")?,
            objectives: field(&v, "objectives")?
                .as_array()
                .ok_or("field `objectives` is not an array")?
                .iter()
                .map(|o| {
                    o.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "field `objectives` holds a non-string".to_string())
                })
                .collect::<Result<_, _>>()?,
        })),
        "table" => Ok(TournamentLine::Row(TournamentRow {
            objective: str_field(&v, "objective")?,
            versus: str_field(&v, "versus")?,
            mean_gap: f64_field(&v, "mean_gap")?,
            median_gap: f64_field(&v, "median_gap")?,
            max_gap: f64_field(&v, "max_gap")?,
            improved_10pct: f64_field(&v, "improved_10pct")?,
            improved_20pct: f64_field(&v, "improved_20pct")?,
        })),
        other => Err(format!("unknown tournament line kind `{other}`")),
    }
}

/// A fully parsed tournament journal: header plus ordered table rows.
#[derive(Clone, Debug, PartialEq)]
pub struct TournamentJournal {
    /// The tournament header.
    pub header: TournamentHeader,
    /// Table rows, in the order written (objective-major).
    pub rows: Vec<TournamentRow>,
}

impl TournamentJournal {
    /// Parses a complete tournament journal: header first, at least
    /// one row, nothing else. Blank lines are allowed.
    pub fn parse(text: &str) -> Result<TournamentJournal, String> {
        let mut header: Option<TournamentHeader> = None;
        let mut rows: Vec<TournamentRow> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = parse_tournament_line(line)
                .map_err(|e| format!("tournament line {lineno}: {e}"))?;
            match parsed {
                TournamentLine::Header(h) => {
                    if header.is_some() {
                        return Err(format!("tournament line {lineno}: second header"));
                    }
                    if !rows.is_empty() {
                        return Err(format!("tournament line {lineno}: header after rows"));
                    }
                    header = Some(h);
                }
                TournamentLine::Row(r) => {
                    if header.is_none() {
                        return Err(format!("tournament line {lineno}: row before header"));
                    }
                    rows.push(r);
                }
            }
        }
        let journal = TournamentJournal {
            header: header.ok_or("tournament journal has no header")?,
            rows,
        };
        journal.validate()?;
        Ok(journal)
    }

    /// Cross-checks the rows against the header: the cache's block
    /// count must fit a `usize`, every row's objective must be one the
    /// header names, no (objective, scheme) pair may repeat, and an
    /// announced objective with no rows at all means the producer was
    /// cut off mid-sweep.
    pub fn validate(&self) -> Result<(), String> {
        let h = &self.header;
        if h.units.checked_mul(h.bpu).is_none() {
            return Err(format!(
                "tournament header: a cache of {} x {}-block units overflows its block count",
                h.units, h.bpu
            ));
        }
        if self.rows.is_empty() {
            return Err("tournament journal has no table rows (truncated?)".to_string());
        }
        let mut seen: Vec<(&str, &str)> = Vec::new();
        for r in &self.rows {
            if !self.header.objectives.iter().any(|o| o == &r.objective) {
                return Err(format!(
                    "table row objective `{}` is not announced in the header",
                    r.objective
                ));
            }
            let key = (r.objective.as_str(), r.versus.as_str());
            if seen.contains(&key) {
                return Err(format!(
                    "duplicate table row for objective `{}` versus `{}`",
                    r.objective, r.versus
                ));
            }
            seen.push(key);
        }
        for o in &self.header.objectives {
            if !self.rows.iter().any(|r| &r.objective == o) {
                return Err(format!(
                    "header announces objective `{o}` but the journal has no rows for it"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TournamentJournal {
        let header = TournamentHeader {
            programs: 9,
            group_size: 4,
            groups: 126,
            units: 32,
            bpu: 2,
            objectives: vec!["miss-ratio".into(), "utility:0.5".into()],
        };
        let row = |objective: &str, versus: &str, mean: f64| TournamentRow {
            objective: objective.into(),
            versus: versus.into(),
            mean_gap: mean,
            median_gap: mean * 0.75,
            max_gap: mean * 4.0,
            improved_10pct: 0.25,
            improved_20pct: 0.125,
        };
        TournamentJournal {
            header,
            rows: vec![
                row("miss-ratio", "equal", 12.5),
                row("miss-ratio", "natural", 6.25),
                row("utility:0.5", "equal", 3.5),
                row("utility:0.5", "natural", 1.75),
            ],
        }
    }

    fn render(j: &TournamentJournal) -> String {
        let mut text = j.header.to_json_line();
        text.push('\n');
        for r in &j.rows {
            text.push_str(&r.to_json_line());
            text.push('\n');
        }
        text
    }

    #[test]
    fn tournament_journal_round_trips_exactly() {
        let journal = sample();
        let parsed = TournamentJournal::parse(&render(&journal)).expect("round trip");
        assert_eq!(parsed, journal);
    }

    #[test]
    fn first_line_kind_identifies_a_tournament() {
        let line = sample().header.to_json_line();
        assert!(matches!(
            parse_tournament_line(&line),
            Ok(TournamentLine::Header(_))
        ));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("tournament"));
    }

    #[test]
    fn unannounced_objective_rows_are_rejected() {
        let mut journal = sample();
        journal.rows[3].objective = "maxmin".into();
        let err = TournamentJournal::parse(&render(&journal)).unwrap_err();
        assert!(err.contains("not announced"), "{err}");
    }

    #[test]
    fn duplicate_rows_are_rejected() {
        let mut journal = sample();
        journal.rows[1] = journal.rows[0].clone();
        let err = TournamentJournal::parse(&render(&journal)).unwrap_err();
        assert!(err.contains("duplicate table row"), "{err}");
    }

    #[test]
    fn missing_objective_rows_mean_truncation() {
        let mut journal = sample();
        journal.rows.truncate(2); // all utility rows gone
        let err = TournamentJournal::parse(&render(&journal)).unwrap_err();
        assert!(err.contains("no rows for it"), "{err}");
    }

    #[test]
    fn rows_before_the_header_break_the_protocol() {
        let journal = sample();
        let mut text = journal.rows[0].to_json_line();
        text.push('\n');
        text.push_str(&journal.header.to_json_line());
        let err = TournamentJournal::parse(&text).unwrap_err();
        assert!(err.contains("row before header"), "{err}");
    }

    #[test]
    fn a_block_count_past_usize_is_rejected() {
        let mut journal = sample();
        journal.header.units = usize::MAX;
        let err = TournamentJournal::parse(&render(&journal)).unwrap_err();
        assert!(err.contains("overflows its block count"), "{err}");
    }

    #[test]
    fn version_drift_is_rejected() {
        let line = sample().header.to_json_line().replace("\"v\":3", "\"v\":1");
        let err = parse_tournament_line(&line).unwrap_err();
        assert!(err.contains("journal version 1"), "{err}");
    }
}
