//! Ablation A3 — bursty sampled profiling vs full-trace profiling.
//!
//! The paper uses full-trace footprints "to have reproducible results"
//! but cites ABF sampling (Wang et al.) as the practical mode. This
//! ablation measures what sampling costs *end to end*: profile the study
//! programs at several burst-coverage ratios, re-run the optimal
//! partitioning on the sampled curves, and compare both the MRC error
//! and the achieved group miss ratio (evaluated on full-trace curves)
//! against full-trace profiling.

use cps_bench::{default_config, default_trace_len, quick_mode, Csv, Ctx};
use cps_core::sweep::all_k_subsets;
use cps_core::{optimal_partition, CostCurve, Objective};
use cps_hotl::{sample_footprint, BurstConfig, MissRatioCurve, SoloProfile};
use cps_trace::spec_like::study_programs_scaled;

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let config = default_config();
    let specs = study_programs_scaled(default_trace_len());
    let traces: Vec<_> = specs.iter().map(|s| s.trace()).collect();

    // Full-trace reference profiles.
    let full: Vec<SoloProfile> = specs
        .iter()
        .zip(&traces)
        .map(|(s, t)| SoloProfile::from_trace(s.name, &t.blocks, s.access_rate, config.blocks()))
        .collect();

    // Two knobs: burst length (how long a window the sample can see)
    // and whether the truncated footprint is tail-extrapolated. Bursts
    // shorter than the cache's fill time cannot resolve large-cache
    // miss ratios at all — extrapolation is what makes short bursts
    // usable by the optimizer.
    let cases: Vec<(usize, usize, bool)> = vec![
        // (burst accesses, skip ratio, extrapolate)
        (8 * config.blocks(), 10, false),
        (8 * config.blocks(), 10, true),
        (32 * config.blocks(), 10, true),
        (64 * config.blocks(), 5, true),
        (8 * config.blocks(), 50, true),
    ];
    let groups = all_k_subsets(specs.len(), 4);
    let step = if quick_mode() { 364 } else { 36 };
    let sample_groups: Vec<&Vec<usize>> = groups.iter().step_by(step).collect();

    let mut csv = Csv::with_header(&[
        "burst",
        "coverage_pct",
        "extrapolated",
        "mean_mrc_abs_err",
        "max_mrc_abs_err",
        "mean_group_mr_sampled_alloc",
        "mean_group_mr_full_alloc",
        "mean_regret_pct",
    ]);
    println!(
        "Sampling ablation: {} groups re-optimized per case",
        sample_groups.len()
    );
    println!(
        "{:>8} {:>9} {:>6} {:>14} {:>13} {:>14} {:>13} {:>12}",
        "burst",
        "coverage",
        "extrap",
        "mean MRC err",
        "max MRC err",
        "sampled alloc",
        "full alloc",
        "regret"
    );
    for &(burst, ratio, extrapolate) in &cases {
        let cfg = BurstConfig::with_ratio(burst, ratio);
        let sampled: Vec<SoloProfile> = specs
            .iter()
            .zip(&traces)
            .map(|(s, t)| {
                let mut fp = sample_footprint(&t.blocks, cfg);
                if extrapolate {
                    fp = fp.extrapolate_to(config.blocks() as f64 + 1.0, t.len() + 1);
                }
                let mrc = MissRatioCurve::from_footprint(&fp, config.blocks());
                SoloProfile {
                    name: s.name.to_string(),
                    access_rate: s.access_rate,
                    accesses: fp.accesses,
                    footprint: fp,
                    mrc,
                }
            })
            .collect();
        // MRC error vs full profiles.
        let mut errs = Vec::new();
        for (s, f) in sampled.iter().zip(&full) {
            for c in (0..=config.blocks()).step_by(16) {
                errs.push((s.mrc.at(c) - f.mrc.at(c)).abs());
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        let max_err = errs.iter().fold(0.0f64, |a, &b| a.max(b));
        // End effect: optimize on sampled curves, evaluate on full.
        let (mut mr_sampled, mut mr_full, mut regret) = (0.0, 0.0, 0.0);
        for indices in &sample_groups {
            let mem_s: Vec<&SoloProfile> = indices.iter().map(|&i| &sampled[i]).collect();
            let mem_f: Vec<&SoloProfile> = indices.iter().map(|&i| &full[i]).collect();
            let total: f64 = mem_f.iter().map(|m| m.access_rate).sum();
            let costs_s: Vec<CostCurve> = mem_s
                .iter()
                .map(|m| CostCurve::from_miss_ratio(&m.mrc, &config, m.access_rate / total))
                .collect();
            let costs_f: Vec<CostCurve> = mem_f
                .iter()
                .map(|m| CostCurve::from_miss_ratio(&m.mrc, &config, m.access_rate / total))
                .collect();
            let alloc_s = optimal_partition(&costs_s, config.units, &Objective::MissRatioSum)
                .expect("feasible")
                .allocation;
            let best_f = optimal_partition(&costs_f, config.units, &Objective::MissRatioSum)
                .expect("feasible");
            // Cost of the sampled-data allocation under the true curves.
            let achieved: f64 = costs_f.iter().zip(&alloc_s).map(|(c, &u)| c.at(u)).sum();
            mr_sampled += achieved;
            mr_full += best_f.cost;
            regret += (achieved / best_f.cost.max(1e-9) - 1.0) * 100.0;
        }
        let n = sample_groups.len() as f64;
        println!(
            "{:>8} {:>8.1}% {:>6} {:>14.5} {:>13.5} {:>14.5} {:>13.5} {:>11.2}%",
            burst,
            cfg.coverage() * 100.0,
            if extrapolate { "yes" } else { "no" },
            mean_err,
            max_err,
            mr_sampled / n,
            mr_full / n,
            regret / n
        );
        csv.row_mixed(
            &[
                &burst.to_string(),
                &format!("{:.1}", cfg.coverage() * 100.0),
                if extrapolate { "yes" } else { "no" },
            ],
            &[mean_err, max_err, mr_sampled / n, mr_full / n, regret / n],
        );
    }
    println!("\n(regret: extra group miss ratio from optimizing on sampled");
    println!(" instead of full profiles, evaluated on the true curves)");

    csv.save("ablation_sampling.csv")
}
