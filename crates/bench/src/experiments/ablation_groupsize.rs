//! Ablation A2 — co-run group size.
//!
//! Section VII-B: the STTW "problem is exacerbated when more programs
//! share the cache, since a larger group increases the chance of the
//! violation of the \[convexity\] assumption by one or more members". This
//! ablation sweeps group sizes k = 2..6 and reports Optimal's average
//! improvement over STTW, Natural, and Equal at each k.

use cps_bench::{quick_mode, Csv, Ctx};
use cps_core::sweep::{improvement_stats, sweep_groups, GroupRecord};
use cps_core::Scheme;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    let sizes: &[usize] = if quick_mode() {
        &[2, 3]
    } else {
        &[2, 3, 4, 5, 6]
    };
    let mut csv = Csv::with_header(&[
        "group_size",
        "groups",
        "avg_impr_vs_sttw_pct",
        "sttw_ge10_pct",
        "avg_impr_vs_natural_pct",
        "avg_impr_vs_equal_pct",
    ]);
    println!(
        "Group-size ablation ({} programs, {} units):",
        study.len(),
        study.config.units
    );
    println!(
        "{:>3} {:>8} {:>14} {:>12} {:>14} {:>14}",
        "k", "groups", "vs STTW avg", "STTW >=10%", "vs Natural", "vs Equal"
    );
    for &k in sizes {
        // k = 4 is the sweep every figure shares; the rest are this
        // ablation's own.
        let own;
        let records: &[GroupRecord] = if k == 4 {
            ctx.sweep()
        } else {
            own = sweep_groups(study, k);
            &own
        };
        let sttw = improvement_stats(records, Scheme::Sttw).expect("non-empty");
        let natural = improvement_stats(records, Scheme::Natural).expect("non-empty");
        let equal = improvement_stats(records, Scheme::Equal).expect("non-empty");
        println!(
            "{:>3} {:>8} {:>13.2}% {:>11.2}% {:>13.2}% {:>13.2}%",
            k,
            records.len(),
            sttw.summary.mean,
            sttw.improved_10pct * 100.0,
            natural.summary.mean,
            equal.summary.mean,
        );
        csv.row_mixed(
            &[&k.to_string(), &records.len().to_string()],
            &[
                sttw.summary.mean,
                sttw.improved_10pct * 100.0,
                natural.summary.mean,
                equal.summary.mean,
            ],
        );
    }
    println!("\n(Expect the STTW columns to grow with k — more members, more");
    println!(" chances a working-set cliff lands where the greedy missteps.)");

    csv.save("ablation_groupsize.csv")
}
