//! Experiment E4 — Figure 6: group miss ratios of the five partitioning
//! methods over all 1820 groups, sorted by Optimal.
//!
//! The paper's figure shows Optimal as the lower envelope, Equal mostly
//! highest, Natural between, and the two baseline curves hugging their
//! baselines from below. The CSV regenerates the full plot; stdout
//! summarizes the curves at percentile cuts.

use cps_bench::{Csv, Ctx};
use cps_core::sweep::GroupRecord;
use cps_core::Scheme;
use cps_dstruct::stats::quantile;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let mut records: Vec<&GroupRecord> = ctx.sweep().iter().collect();

    records.sort_by(|a, b| {
        a.evaluation
            .get(Scheme::Optimal)
            .group_miss_ratio
            .partial_cmp(&b.evaluation.get(Scheme::Optimal).group_miss_ratio)
            .unwrap()
    });

    let schemes = [
        Scheme::Natural,
        Scheme::Equal,
        Scheme::NaturalBaseline,
        Scheme::EqualBaseline,
        Scheme::Optimal,
    ];
    let mut csv = Csv::with_header(&[
        "rank",
        "natural",
        "equal",
        "natural_baseline",
        "equal_baseline",
        "optimal",
    ]);
    let mut series: Vec<Vec<f64>> = vec![Vec::with_capacity(records.len()); schemes.len()];
    for (rank, rec) in records.iter().enumerate() {
        let values: Vec<f64> = schemes
            .iter()
            .map(|&s| rec.evaluation.get(s).group_miss_ratio)
            .collect();
        for (serie, v) in series.iter_mut().zip(&values) {
            serie.push(*v);
        }
        csv.row_mixed(&[&rank.to_string()], &values);
    }

    println!("\nFigure 6: group miss ratio by scheme (percentiles over groups)");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "scheme", "p10", "p50", "p90", "p99", "max"
    );
    for (i, s) in schemes.iter().enumerate() {
        let xs = &series[i];
        println!(
            "{:<18} {:>9.5} {:>9.5} {:>9.5} {:>9.5} {:>9.5}",
            s.name(),
            quantile(xs, 0.10).unwrap(),
            quantile(xs, 0.50).unwrap(),
            quantile(xs, 0.90).unwrap(),
            quantile(xs, 0.99).unwrap(),
            xs.iter().fold(0.0f64, |a, &b| a.max(b)),
        );
    }

    // The figure's visual claim: Optimal is the lower envelope.
    let optimal = &series[4];
    for (i, s) in schemes.iter().enumerate().take(4) {
        let dominated = series[i]
            .iter()
            .zip(optimal)
            .filter(|(v, o)| **v + 1e-9 >= **o)
            .count();
        println!(
            "Optimal <= {} in {}/{} groups",
            s.name(),
            dominated,
            optimal.len()
        );
    }

    csv.save("fig6_group_miss_ratios.csv")
}
