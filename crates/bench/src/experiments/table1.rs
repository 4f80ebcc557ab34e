//! Experiment E6/E10 — Table I: improvement of Optimal over the five
//! other schemes across all C(16, 4) = 1820 co-run groups, plus the
//! convexity-violation analysis of the STTW discussion.
//!
//! Paper reference values (Table I):
//!
//! | versus | Max | Avg | Median | ≥10% | ≥20% |
//! |---|---|---|---|---|---|
//! | Equal | 4746% | 125% | 26% | 77% | 58% |
//! | Equal baseline | 2955% | 98% | 23% | 70% | 53% |
//! | Natural | 267% | 26% | 15% | 58% | 45% |
//! | Natural baseline | 267% | 26% | 14% | 57% | 45% |
//! | STTW | 307% | 34% | 2.5% | 34% | 33% |

use cps_bench::{pct, Csv, Ctx};
use cps_core::sweep::table1;
use cps_core::Scheme;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    let records = ctx.sweep();

    println!("\nTable I: improvement of group performance by Optimal partition");
    println!(
        "{:<18} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "versus", "Max", "Avg", "Median", ">=10%", ">=20%"
    );
    let mut csv = Csv::with_header(&[
        "versus",
        "max_pct",
        "avg_pct",
        "median_pct",
        "improved_10pct",
        "improved_20pct",
    ]);
    for row in table1(records) {
        println!(
            "{:<18} {:>12} {:>10} {:>10} {:>8} {:>8}",
            row.versus.name(),
            pct(row.summary.max),
            pct(row.summary.mean),
            pct(row.summary.median),
            pct(row.improved_10pct * 100.0),
            pct(row.improved_20pct * 100.0),
        );
        csv.row_mixed(
            &[row.versus.name()],
            &[
                row.summary.max,
                row.summary.mean,
                row.summary.median,
                row.improved_10pct * 100.0,
                row.improved_20pct * 100.0,
            ],
        );
    }

    // Convexity-violation analysis (Section VII-B): how many programs
    // have non-convex MRCs, and how often STTW trails Natural.
    let non_convex = study
        .profiles
        .iter()
        .filter(|p| p.mrc.is_non_convex(1e-4))
        .count();
    let sttw_worse_than_natural = records
        .iter()
        .filter(|r| {
            r.evaluation.get(Scheme::Sttw).group_miss_ratio
                > r.evaluation.get(Scheme::Natural).group_miss_ratio + 1e-9
        })
        .count();
    println!(
        "\nConvexity analysis: {non_convex}/{} programs have non-convex MRCs;",
        study.len()
    );
    println!(
        "STTW is worse than free-for-all sharing in {}/{} groups ({}).",
        sttw_worse_than_natural,
        records.len(),
        pct(sttw_worse_than_natural as f64 / records.len() as f64 * 100.0)
    );
    csv.save("table1.csv")
}
