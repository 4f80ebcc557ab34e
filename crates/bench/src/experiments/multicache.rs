//! Experiment E11 — sharing across multiple caches
//! (Section II, sub-problem 1).
//!
//! Eight programs, two equal caches: the grouping space is
//! S(8, 2) = 127 (Eq. 1). We search it exhaustively under both
//! within-cache policies (free-for-all, optimally partitioned), compare
//! against the greedy placement heuristic, and report the spread between
//! the best and worst groupings — the payoff of co-run-aware scheduling.

use cps_bench::{Csv, Ctx};
use cps_core::multicache::{
    best_assignment, enumerate_assignments, evaluate_assignment, greedy_assignment, CachePolicy,
};
use cps_hotl::SoloProfile;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    // A contrasting eight: heavy streamers, mid, and light programs.
    let wanted = [
        "lbm-like",
        "mcf-like",
        "sphinx3-like",
        "omnetpp-like",
        "bzip2-like",
        "perlbench-like",
        "hmmer-like",
        "povray-like",
    ];
    let members: Vec<&SoloProfile> = wanted
        .iter()
        .map(|name| {
            &study.profiles[study
                .index_of(name)
                .unwrap_or_else(|| panic!("missing {name}"))]
        })
        .collect();
    let caches = 2usize;
    let cfg = study.config;

    println!(
        "{} programs on {caches} caches of {} blocks each (S({}, {caches}) = {} groupings)\n",
        members.len(),
        cfg.blocks(),
        members.len(),
        enumerate_assignments(members.len(), caches).len()
    );

    let mut csv = Csv::with_header(&["policy", "kind", "overall_miss_ratio", "grouping"]);
    for policy in [CachePolicy::Shared, CachePolicy::Partitioned] {
        let label = match policy {
            CachePolicy::Shared => "shared",
            CachePolicy::Partitioned => "partitioned",
        };
        // Full distribution over groupings.
        let mut all: Vec<(f64, String)> = enumerate_assignments(members.len(), caches)
            .into_iter()
            .map(|a| {
                let eval = evaluate_assignment(&members, &cfg, &a, policy);
                let desc = a
                    .groups
                    .iter()
                    .map(|g| {
                        g.iter()
                            .map(|&i| wanted[i].trim_end_matches("-like"))
                            .collect::<Vec<_>>()
                            .join("+")
                    })
                    .collect::<Vec<_>>()
                    .join(" | ");
                (eval.overall_miss_ratio, desc)
            })
            .collect();
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let best = best_assignment(&members, &cfg, caches, policy).expect("groupings exist");
        let greedy = greedy_assignment(&members, &cfg, caches, policy).expect("feasible");
        let median = all[all.len() / 2].0;

        println!("policy: {label}");
        println!("  best grouping   : {:.5}  [{}]", all[0].0, all[0].1);
        println!("  median grouping : {median:.5}");
        println!(
            "  worst grouping  : {:.5}  [{}]",
            all[all.len() - 1].0,
            all[all.len() - 1].1
        );
        println!(
            "  greedy heuristic: {:.5}  ({}x examined vs {} exhaustive)",
            greedy.eval.overall_miss_ratio, greedy.examined, best.examined
        );
        println!(
            "  best/worst spread: {:.1}%\n",
            (all[all.len() - 1].0 / all[0].0 - 1.0) * 100.0
        );
        csv.row_mixed(&[label, "best", &all[0].1], &[all[0].0]);
        csv.row_mixed(&[label, "median", ""], &[median]);
        csv.row_mixed(
            &[label, "worst", &all[all.len() - 1].1],
            &[all[all.len() - 1].0],
        );
        csv.row_mixed(&[label, "greedy", ""], &[greedy.eval.overall_miss_ratio]);
    }
    println!("(within-cache partitioning should dominate free-for-all for every");
    println!(" grouping — the single-cache result of the paper, applied per cache)");

    csv.save("multicache.csv")
}
