//! `compare A.json B.json`: the regression rule over two result files
//! of the untraced run (A the baseline, B the candidate).
//!
//! Per workload and end-to-end metric, with the direction and bound
//! the files carry:
//!
//! * `unresolved` — the quartile spread of either side is wider than
//!   the bound *and* the two sides' sample ranges overlap: the runs
//!   cannot tell a change of that size from noise;
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unchanged` — otherwise (including "better").
//!
//! Files made from different inputs are not comparable and are refused.

use crate::json::Value;
use crate::stats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The rule itself, on raw samples.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worsening = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let range = |v: &[f64]| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    let overlap = alo <= bhi && blo <= ahi;
    let noisy = stats::spread(a).max(stats::spread(b)) > bound;
    if noisy && overlap {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

pub struct Line {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a_median: f64,
    pub b_median: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: no `{key}`"))
}

fn samples(metric: &Value, what: &str) -> Result<Vec<f64>, String> {
    let out: Vec<f64> = field(metric, "samples", what)?
        .as_arr()
        .ok_or_else(|| format!("{what}: `samples` is not an array"))?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    if out.is_empty() {
        return Err(format!("{what}: no samples"));
    }
    Ok(out)
}

/// Compares two parsed result files; `notes` collects behaviour
/// differences that are not regressions of a metric (a changed
/// canonical journal).
pub fn compare(a: &Value, b: &Value, notes: &mut Vec<String>) -> Result<Vec<Line>, String> {
    for key in ["schema", "seed", "mode"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "refusing to compare: `{key}` differs ({:?} vs {:?})",
                a.get(key),
                b.get(key)
            ));
        }
    }
    if a.get("mode").and_then(Value::as_str) != Some("run") {
        return Err("refusing to compare: only untraced `run` results carry bounds".into());
    }
    fn workloads(v: &Value) -> Result<&[Value], String> {
        field(v, "workloads", "result file")?
            .as_arr()
            .ok_or_else(|| "`workloads` is not an array".to_string())
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut lines = Vec::new();
    for a_w in wa {
        let name = field(a_w, "name", "workload")?
            .as_str()
            .ok_or("workload name is not a string")?;
        let Some(b_w) = wb
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("refusing to compare: B has no workload `{name}`"));
        };
        for key in ["input_digest", "items_per_pass", "stream_records"] {
            if a_w.get(key) != b_w.get(key) {
                return Err(format!(
                    "refusing to compare {name}: `{key}` differs ({:?} vs {:?}) — \
                     the two files were not measured on the same inputs",
                    a_w.get(key),
                    b_w.get(key)
                ));
            }
        }
        if a_w.get("journal_digest") != b_w.get("journal_digest") {
            notes.push(format!(
                "{name}: canonical journal changed ({:?} -> {:?}): the program decides differently",
                a_w.get("journal_digest").and_then(Value::as_str),
                b_w.get("journal_digest").and_then(Value::as_str),
            ));
        }
        for side in [a_w, b_w] {
            if side.get("failed").and_then(Value::as_f64) != Some(0.0) {
                notes.push(format!("{name}: a run reports failed items"));
            }
        }
        let metrics = field(a_w, "metrics", name)?
            .as_arr()
            .ok_or("`metrics` is not an array")?;
        for a_m in metrics {
            let metric = field(a_m, "name", name)?
                .as_str()
                .ok_or("metric name is not a string")?;
            let what = format!("{name}/{metric}");
            let b_m = field(b_w, "metrics", name)?
                .as_arr()
                .and_then(|ms| {
                    ms.iter()
                        .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
                })
                .ok_or_else(|| format!("B has no metric {what}"))?;
            let (sa, sb) = (samples(a_m, &what)?, samples(b_m, &what)?);
            let bound = field(a_m, "bound", &what)?
                .as_f64()
                .ok_or_else(|| format!("{what}: bound is not a number"))?;
            let higher = field(a_m, "better", &what)?.as_str() == Some("higher");
            lines.push(Line {
                workload: name.to_string(),
                metric: metric.to_string(),
                unit: a_m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string(),
                a_median: stats::median(&sa),
                b_median: stats::median(&sb),
                bound,
                verdict: judge(&sa, &sb, higher, bound),
            });
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rule_separates_regressed_unchanged_and_unresolved() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, bound 5%.
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        assert_eq!(judge(&base, &same, false, 0.05), Verdict::Unchanged);
        let worse = [110.0, 111.0, 109.0, 110.5, 109.5];
        assert_eq!(judge(&base, &worse, false, 0.05), Verdict::Regressed);
        // The same move is an improvement when higher is better.
        assert_eq!(judge(&base, &worse, true, 0.05), Verdict::Unchanged);
        assert_eq!(judge(&worse, &base, true, 0.05), Verdict::Regressed);
        let better = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(judge(&base, &better, false, 0.05), Verdict::Unchanged);

        // Spread wider than the bound with overlapping runs: nothing
        // can be said, whichever way the medians lean.
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 108.0, 130.0, 95.0, 118.0];
        assert_eq!(judge(&noisy_a, &noisy_b, false, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&noisy_a, &noisy_a, false, 0.05), Verdict::Unresolved);
        // Noisy but disjoint: every candidate run is worse than every
        // baseline run, so the noise does not hide the regression.
        let far = [200.0, 230.0, 260.0, 215.0, 245.0];
        assert_eq!(judge(&noisy_a, &far, false, 0.05), Verdict::Regressed);
        // ...and when every candidate run is better, it is not unresolved.
        assert_eq!(judge(&far, &noisy_a, false, 0.05), Verdict::Unchanged);
        // Single exact samples have no spread.
        assert_eq!(judge(&[0.3839], &[0.3839], false, 0.02), Verdict::Unchanged);
        assert_eq!(judge(&[0.3839], &[0.40], false, 0.02), Verdict::Regressed);
    }

    fn result(seed: f64, digest: &str, samples: &[f64]) -> Value {
        Value::obj(vec![
            ("schema", Value::str("cps-benchmark/1")),
            ("seed", Value::Num(seed)),
            ("mode", Value::str("run")),
            (
                "workloads",
                Value::Arr(vec![Value::obj(vec![
                    ("name", Value::str("serve-ingest")),
                    ("input_digest", Value::str(digest)),
                    ("items_per_pass", Value::Num(4e6)),
                    ("stream_records", Value::Num(4e6)),
                    ("journal_digest", Value::str("j")),
                    ("failed", Value::Num(0.0)),
                    (
                        "metrics",
                        Value::Arr(vec![Value::obj(vec![
                            ("name", Value::str("throughput")),
                            ("unit", Value::str("1/s")),
                            ("better", Value::str("higher")),
                            ("bound", Value::Num(0.08)),
                            ("samples", Value::nums(samples)),
                        ])]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn files_from_other_inputs_are_refused() {
        let a = result(42.0, "aaaa", &[5.0e6, 5.1e6, 4.9e6]);
        let mut notes = Vec::new();
        let lines = compare(
            &a,
            &result(42.0, "aaaa", &[4.0e6, 4.1e6, 3.9e6]),
            &mut notes,
        )
        .unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].verdict, Verdict::Regressed);
        assert!(notes.is_empty());
        let other_seed = compare(&a, &result(7.0, "aaaa", &[5.0e6]), &mut notes);
        assert!(other_seed.err().unwrap().contains("`seed` differs"));
        let other_input = compare(&a, &result(42.0, "bbbb", &[5.0e6]), &mut notes);
        assert!(other_input.err().unwrap().contains("input_digest"));
    }
}
