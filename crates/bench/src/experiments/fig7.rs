//! Experiment E5 — Figure 7: Optimal vs STTW group miss ratios over all
//! groups, sorted by Optimal.
//!
//! Where every member's MRC is convex the two coincide; working-set
//! cliffs open a gap, and in a sizable minority of groups STTW even
//! loses to free-for-all sharing (the paper's headline criticism).

use cps_bench::{pct, Csv, Ctx};
use cps_core::sweep::GroupRecord;
use cps_core::Scheme;
use cps_dstruct::Summary;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let mut records: Vec<&GroupRecord> = ctx.sweep().iter().collect();

    records.sort_by(|a, b| {
        a.evaluation
            .get(Scheme::Optimal)
            .group_miss_ratio
            .partial_cmp(&b.evaluation.get(Scheme::Optimal).group_miss_ratio)
            .unwrap()
    });

    let mut csv = Csv::with_header(&["rank", "sttw", "optimal"]);
    let mut gaps = Vec::with_capacity(records.len());
    let mut ties = 0usize;
    let mut sttw_worse_than_natural = 0usize;
    for (rank, rec) in records.iter().enumerate() {
        let opt = rec.evaluation.get(Scheme::Optimal).group_miss_ratio;
        let sttw = rec.evaluation.get(Scheme::Sttw).group_miss_ratio;
        let nat = rec.evaluation.get(Scheme::Natural).group_miss_ratio;
        csv.row_mixed(&[&rank.to_string()], &[sttw, opt]);
        gaps.push(rec.evaluation.improvement_of_optimal_over(Scheme::Sttw));
        if (sttw - opt).abs() < 1e-9 {
            ties += 1;
        }
        if sttw > nat + 1e-9 {
            sttw_worse_than_natural += 1;
        }
    }

    let s = Summary::from_samples(&gaps).expect("non-empty");
    println!("\nFigure 7: STTW vs Optimal over {} groups", records.len());
    println!("  STTW == Optimal (convex groups): {ties} groups");
    println!(
        "  Optimal improves STTW by: max {} avg {} median {}",
        pct(s.max),
        pct(s.mean),
        pct(s.median)
    );
    println!(
        "  STTW at least 10% worse: {}",
        pct(gaps.iter().filter(|&&g| g >= 10.0).count() as f64 / gaps.len() as f64 * 100.0)
    );
    println!(
        "  STTW worse than free-for-all sharing: {}/{} groups ({})",
        sttw_worse_than_natural,
        records.len(),
        pct(sttw_worse_than_natural as f64 / records.len() as f64 * 100.0)
    );

    csv.save("fig7_sttw_vs_optimal.csv")
}
