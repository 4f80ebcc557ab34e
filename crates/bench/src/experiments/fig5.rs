//! Experiment E3 — Figure 5: per-program miss ratios across peer groups.
//!
//! For each program, the paper plots its miss ratio in every co-run
//! group it belongs to (C(15, 3) = 455 groups), under the five schemes
//! Equal / Natural / Equal-baseline / Natural-baseline / Optimal,
//! ordered by the program's (constant) Equal miss ratio. The qualitative
//! features to reproduce: Equal is constant per program; Natural varies
//! with the peer group; baselines never exceed their baseline; Optimal
//! may improve or degrade an individual program; high-miss programs
//! mostly gain from sharing and low-miss programs mostly lose.

use cps_bench::{Csv, Ctx};
use cps_core::fairness::{FairnessReport, ProgramFairnessTally};
use cps_core::Scheme;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    let records = ctx.sweep();

    // Per-program, per-scheme miss ratios across all the groups the
    // program participates in.
    let n = study.len();
    let schemes = [
        Scheme::Equal,
        Scheme::Natural,
        Scheme::NaturalBaseline,
        Scheme::EqualBaseline,
        Scheme::Optimal,
    ];
    let mut csv = Csv::with_header(&[
        "program",
        "group",
        "equal",
        "natural",
        "natural_baseline",
        "equal_baseline",
        "optimal",
    ]);
    let mut tallies = vec![ProgramFairnessTally::default(); n];
    for rec in records {
        let report = FairnessReport::from_evaluation(&rec.evaluation);
        for (member_idx, &prog) in rec.indices.iter().enumerate() {
            tallies[prog].add(&report, member_idx);
            let group_label = rec
                .indices
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("+");
            let values: Vec<f64> = schemes
                .iter()
                .map(|&s| rec.evaluation.get(s).member_miss_ratios[member_idx])
                .collect();
            csv.row_mixed(&[&study.profiles[prog].name, &group_label], &values);
        }
    }

    // Summary table ordered by Equal miss ratio (as in the figure).
    let mut order: Vec<usize> = (0..n).collect();
    let equal_mr = |p: usize| {
        // Equal miss ratio is constant across groups; read one record.
        records
            .iter()
            .find_map(|r| {
                r.indices
                    .iter()
                    .position(|&i| i == p)
                    .map(|mi| r.evaluation.get(Scheme::Equal).member_miss_ratios[mi])
            })
            .unwrap_or(0.0)
    };
    order.sort_by(|&a, &b| equal_mr(b).partial_cmp(&equal_mr(a)).unwrap());

    println!("\nFigure 5 summary (programs sorted by Equal miss ratio):");
    println!(
        "{:<16} {:>10} {:>14} {:>16} {:>16}",
        "program", "equal mr", "gain-rate", "hurt-vs-equal", "hurt-vs-natural"
    );
    for &p in &order {
        let t = &tallies[p];
        println!(
            "{:<16} {:>10.5} {:>13.1}% {:>15.1}% {:>15.1}%",
            study.profiles[p].name,
            equal_mr(p),
            t.sharing_gain_rate() * 100.0,
            t.hurt_by_optimal_vs_equal as f64 / t.groups as f64 * 100.0,
            t.hurt_by_optimal_vs_natural as f64 / t.groups as f64 * 100.0,
        );
    }
    println!("\n(gain-rate: fraction of peer groups where sharing beats the equal");
    println!(" partition for this program; hurt-*: fraction where Optimal makes");
    println!(" the program worse than that baseline — the unfairness evidence)");

    csv.save("fig5_member_miss_ratios.csv")
}
