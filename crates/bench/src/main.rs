//! `cps-bench` — every table, figure and ablation of the evaluation, as
//! subcommands over one shared study and one 1820-group sweep.
//!
//! ```text
//! cargo run --release -p cps-bench -- all             # E1–E17, "reproduce the paper"
//! cargo run --release -p cps-bench -- ablations       # A1–A4 (slower)
//! cargo run --release -p cps-bench -- fig6 table1     # any rows, by name
//! cargo run --release -p cps-bench -- list
//! ```
//!
//! Set `CPS_QUICK=1` for a reduced-size smoke run and `CPS_RESULTS_DIR`
//! to move the CSVs out of `results/`.

use cps_bench::{run_experiments, Experiment};
use experiments::*;
use std::process::ExitCode;

mod experiments {
    pub mod ablation_granularity;
    pub mod ablation_groupsize;
    pub mod ablation_sampling;
    pub mod assoc_check;
    pub mod correlation;
    pub mod elastic;
    pub mod fig5;
    pub mod fig6;
    pub mod fig7;
    pub mod figure1;
    pub mod hypothesis;
    pub mod multicache;
    pub mod phase_aware;
    pub mod reduction;
    pub mod search_space;
    pub mod stress_study;
    pub mod table1;
    pub mod table1_exact;
    pub mod validate_npa;
}

/// The paper's tables and figures in DESIGN.md's E-index order (E6
/// carries E10's convexity analysis; E9 is the repo benchmark), then the
/// design-choice ablations.
const TABLE: &[Experiment] = &[
    ("E1", "search_space", search_space::run),
    ("E2", "figure1", figure1::run),
    ("E3", "fig5", fig5::run),
    ("E4", "fig6", fig6::run),
    ("E5", "fig7", fig7::run),
    ("E6", "table1", table1::run),
    ("E7", "validate_npa", validate_npa::run),
    ("E8", "reduction", reduction::run),
    ("E11", "multicache", multicache::run),
    ("E12", "phase_aware", phase_aware::run),
    ("E13", "elastic", elastic::run),
    ("E14", "correlation", correlation::run),
    ("E15", "stress_study", stress_study::run),
    ("E16", "hypothesis", hypothesis::run),
    ("E17", "table1_exact", table1_exact::run),
    ("A1", "ablation_granularity", ablation_granularity::run),
    ("A2", "ablation_groupsize", ablation_groupsize::run),
    ("A3", "ablation_sampling", ablation_sampling::run),
    ("A4", "assoc_check", assoc_check::run),
];

const USAGE: &str = "usage: cps-bench list | all | ablations | NAME...  \
                     (`all` = E1-E17, `ablations` = A1-A4; any mix, run in the order given)";

/// Resolves the command line to the rows it names.
fn select(args: &[String]) -> Result<Vec<Experiment>, String> {
    if args.is_empty() {
        return Err(USAGE.into());
    }
    let mut rows = Vec::new();
    for arg in args {
        let before = rows.len();
        rows.extend(TABLE.iter().filter(|(id, name, _)| match arg.as_str() {
            "all" => id.starts_with('E'),
            "ablations" => id.starts_with('A'),
            _ => name == arg,
        }));
        if rows.len() == before {
            let names: Vec<&str> = TABLE.iter().map(|&(_, name, _)| name).collect();
            return Err(format!(
                "unknown experiment `{arg}`; valid: all, ablations, {}",
                names.join(", ")
            ));
        }
    }
    Ok(rows)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args == ["list"] {
        for (id, name, _) in TABLE {
            println!("{id:<4} {name}");
        }
        Ok(())
    } else {
        select(&args).and_then(|rows| run_experiments(&rows))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("cps-bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
