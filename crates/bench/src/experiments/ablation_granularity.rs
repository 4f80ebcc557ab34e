//! Ablation A1 — partition granularity (the paper's 8 KB-unit choice).
//!
//! Section VII-A picks 8 KB units "to reduce the cost of dynamic
//! programming, which is 128² = 16384 times smaller … than partitioning
//! in 64-byte cache blocks". This ablation quantifies the other side of
//! that trade: how much optimality coarser units give up. For a sample
//! of groups we run the DP at unit sizes from 1 block (exact) upward and
//! report the group miss ratio and DP wall time at each granularity.

use cps_bench::{quick_mode, Csv, Ctx};
use cps_core::sweep::all_k_subsets;
use cps_core::{optimal_partition, CacheConfig, CostCurve, Objective};
use cps_hotl::SoloProfile;
use std::time::Instant;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    let blocks = study.config.blocks();
    let groups = all_k_subsets(study.len(), 4);
    let step = if quick_mode() { 364 } else { 36 };
    let sample: Vec<&Vec<usize>> = groups.iter().step_by(step).collect();
    eprintln!("granularity ablation over {} groups", sample.len());

    let unit_sizes: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];
    let mut csv = Csv::with_header(&[
        "blocks_per_unit",
        "units",
        "mean_group_mr",
        "mean_loss_vs_exact_pct",
        "max_loss_vs_exact_pct",
        "dp_micros_per_group",
    ]);

    // Exact (1-block) reference per group.
    let mut exact = Vec::with_capacity(sample.len());
    for indices in &sample {
        let members: Vec<&SoloProfile> = indices.iter().map(|&i| &study.profiles[i]).collect();
        let cfg = CacheConfig::new(blocks, 1);
        exact.push(run_dp(&members, &cfg));
    }

    println!("\nGranularity ablation (4-program groups, {blocks}-block cache):");
    println!(
        "{:>6} {:>7} {:>14} {:>12} {:>12} {:>12}",
        "bpu", "units", "mean group mr", "mean loss", "max loss", "us/group"
    );
    for &bpu in unit_sizes {
        if !blocks.is_multiple_of(bpu) {
            continue;
        }
        let cfg = CacheConfig::new(blocks / bpu, bpu);
        let mut mrs = Vec::new();
        let mut losses = Vec::new();
        let t0 = Instant::now();
        for (indices, &exact_mr) in sample.iter().zip(&exact) {
            let members: Vec<&SoloProfile> = indices.iter().map(|&i| &study.profiles[i]).collect();
            let mr = run_dp(&members, &cfg);
            mrs.push(mr);
            losses.push((mr / exact_mr.max(1e-9) - 1.0) * 100.0);
        }
        let micros = t0.elapsed().as_micros() as f64 / sample.len() as f64;
        let mean_mr = mrs.iter().sum::<f64>() / mrs.len() as f64;
        let mean_loss = losses.iter().sum::<f64>() / losses.len() as f64;
        let max_loss = losses.iter().fold(0.0f64, |a, &b| a.max(b));
        println!(
            "{:>6} {:>7} {:>14.5} {:>11.2}% {:>11.2}% {:>12.0}",
            bpu, cfg.units, mean_mr, mean_loss, max_loss, micros
        );
        csv.row_mixed(
            &[&bpu.to_string(), &cfg.units.to_string()],
            &[mean_mr, mean_loss, max_loss, micros],
        );
    }
    println!("\n(The paper's choice corresponds to coarse units with a 16384x");
    println!(" cheaper DP; the loss column is what that choice costs on our");
    println!(" workloads. Time includes only the Optimal DP, not profiling.)");

    csv.save("ablation_granularity.csv")
}

fn run_dp(members: &[&SoloProfile], cfg: &CacheConfig) -> f64 {
    let total: f64 = members.iter().map(|m| m.access_rate).sum();
    let costs: Vec<CostCurve> = members
        .iter()
        .map(|m| CostCurve::from_miss_ratio(&m.mrc, cfg, m.access_rate / total))
        .collect();
    optimal_partition(&costs, cfg.units, &Objective::MissRatioSum)
        .expect("feasible")
        .cost
}
