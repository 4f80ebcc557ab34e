//! Shared harness for the `cps-bench` experiments.
//!
//! Every experiment module of the `cps-bench` binary regenerates one
//! table or figure of the paper (see DESIGN.md's experiment index).
//! They share one [`Ctx`] — the 16 spec-like programs profiled against
//! the 1024-unit cache, and the sweep of all 1820 four-program groups,
//! each built once per process — the same plain-CSV output conventions
//! (`results/*.csv`, one file per figure, headers in row one), and one
//! runner, [`run_experiments`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use cps_core::sweep::{sweep_groups, GroupRecord};
use cps_core::{CacheConfig, Study};
use cps_trace::spec_like::study_programs_scaled;
use std::cell::OnceCell;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Default trace length per program for full experiments.
pub const FULL_TRACE_LEN: usize = 400_000;

/// Reduced trace length for quick runs (`CPS_QUICK=1`).
pub const QUICK_TRACE_LEN: usize = 60_000;

/// True when the environment asks for a reduced-size run.
pub fn quick_mode() -> bool {
    std::env::var("CPS_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The paper-scale cache geometry: 1024 partition units.
///
/// In quick mode the unit count drops to 256 to keep the three DPs per
/// group cheap.
pub fn default_config() -> CacheConfig {
    if quick_mode() {
        CacheConfig::new(256, 4)
    } else {
        CacheConfig::paper_default()
    }
}

/// Trace length per program of the default study (honoring
/// `CPS_QUICK`).
pub fn default_trace_len() -> usize {
    if quick_mode() {
        QUICK_TRACE_LEN
    } else {
        FULL_TRACE_LEN
    }
}

/// What the experiments of one run share: the default 16-program study
/// and its sweep over every 4-program group, each built on first use
/// and borrowed by every experiment after that.
#[derive(Debug, Default)]
pub struct Ctx {
    study: OnceCell<Study>,
    sweep: OnceCell<Vec<GroupRecord>>,
}

impl Ctx {
    /// The default 16-program study (honoring `CPS_QUICK`).
    pub fn study(&self) -> &Study {
        self.study.get_or_init(|| {
            let t = Instant::now();
            let study = Study::build(
                &study_programs_scaled(default_trace_len()),
                default_config(),
            );
            eprintln!("profiled {} programs in {:.1?}", study.len(), t.elapsed());
            study
        })
    }

    /// All six schemes evaluated on every 4-program group of
    /// [`Self::study`], in enumeration order.
    pub fn sweep(&self) -> &[GroupRecord] {
        self.sweep.get_or_init(|| {
            let study = self.study();
            let t = Instant::now();
            let records = sweep_groups(study, 4);
            eprintln!(
                "evaluated {} groups x 6 schemes in {:.1?} ({:.0} ms/group avg)",
                records.len(),
                t.elapsed(),
                t.elapsed().as_millis() as f64 / records.len() as f64
            );
            records
        })
    }
}

/// One row of the experiment table: the ID DESIGN.md and EXPERIMENTS.md
/// use, the name typed on the command line, and the function that prints
/// the experiment's table and writes its CSV.
pub type Experiment = (&'static str, &'static str, fn(&Ctx) -> Result<(), String>);

/// Runs `rows` in order over one shared [`Ctx`], each under a
/// `=== name ===` banner with its wall time. An experiment that returns
/// an error or panics is reported and the rest still run; the error
/// names every experiment that failed.
pub fn run_experiments(rows: &[Experiment]) -> Result<(), String> {
    let ctx = Ctx::default();
    let t0 = Instant::now();
    let mut failed = Vec::new();
    for &(_, name, run) in rows {
        println!(
            "\n=== {name} {}",
            "=".repeat(60_usize.saturating_sub(name.len()))
        );
        let t = Instant::now();
        // A panic inside a `OnceCell` initializer leaves the cell
        // empty, so the context stays usable by the next experiment.
        let outcome = catch_unwind(AssertUnwindSafe(|| run(&ctx)))
            .unwrap_or_else(|_| Err("panicked (message above)".into()));
        match outcome {
            Ok(()) => println!("--- {name} finished in {:.1?}", t.elapsed()),
            Err(e) => {
                eprintln!("--- {name} FAILED: {e}");
                failed.push(name);
            }
        }
    }
    println!(
        "\n=== {} experiments done in {:.1?} ===",
        rows.len(),
        t0.elapsed()
    );
    if failed.is_empty() {
        println!("all completed; CSVs in {}", results_dir().display());
        Ok(())
    } else {
        Err(format!("failed experiments: {failed:?}"))
    }
}

/// Where result CSVs go (`results/` next to the workspace root, or
/// `$CPS_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CPS_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // Walk up from the crate dir to the workspace root.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    here.ancestors().nth(2).unwrap_or(here).join("results")
}

/// A minimal CSV writer (quotes nothing; callers keep fields clean).
#[derive(Debug, Default)]
pub struct Csv {
    buf: String,
}

impl Csv {
    /// Starts a CSV with a header row.
    pub fn with_header(columns: &[&str]) -> Self {
        let mut csv = Csv::default();
        csv.row(columns);
        csv
    }

    /// Appends one row of string fields.
    pub fn row(&mut self, fields: &[&str]) {
        let _ = writeln!(self.buf, "{}", fields.join(","));
    }

    /// Appends one row of float fields with 6 significant digits,
    /// prefixed by string fields.
    pub fn row_mixed(&mut self, strings: &[&str], floats: &[f64]) {
        let mut fields: Vec<String> = strings.iter().map(|s| s.to_string()).collect();
        fields.extend(floats.iter().map(|f| format!("{f:.6}")));
        let _ = writeln!(self.buf, "{}", fields.join(","));
    }

    /// Writes the CSV under `results_dir()/name`.
    pub fn save(&self, name: &str) -> Result<(), String> {
        let dir = results_dir();
        let path = dir.join(name);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, &self.buf))
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok(())
    }

    /// The accumulated contents.
    pub fn contents(&self) -> &str {
        &self.buf
    }
}

/// Formats a percentage with the paper's two-decimal style.
pub fn pct(v: f64) -> String {
    format!("{v:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_builds_rows() {
        let mut c = Csv::with_header(&["a", "b"]);
        c.row(&["x", "y"]);
        c.row_mixed(&["z"], &[1.5, 0.25]);
        assert_eq!(c.contents(), "a,b\nx,y\nz,1.500000,0.250000\n");
    }

    #[test]
    fn results_dir_is_workspace_results() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(26.351), "26.35%");
    }
}
