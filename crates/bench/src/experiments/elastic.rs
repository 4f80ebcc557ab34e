//! Experiment E13 — the elastic fairness–throughput trade-off
//! (citation \[18\], RECU-style θ-guarantees).
//!
//! For a sample of co-run groups, sweep the guarantee strength θ from 0
//! (unconstrained Optimal) to 1 (the Equal baseline of Section VI) and
//! report the group miss ratio at each point — the Pareto frontier
//! between protecting individuals and serving the group.

use cps_bench::{quick_mode, Csv, Ctx};
use cps_core::elastic::elastic_sweep;
use cps_core::sweep::all_k_subsets;
use cps_hotl::SoloProfile;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    let groups = all_k_subsets(study.len(), 4);
    let step = if quick_mode() { 364 } else { 91 };
    let sample: Vec<&Vec<usize>> = groups.iter().step_by(step).collect();
    let steps = 10usize;
    eprintln!(
        "elastic sweep over {} groups, {} theta points each",
        sample.len(),
        steps + 1
    );

    // Mean group miss ratio at each theta, over the sampled groups.
    let per_group: Vec<Vec<f64>> = sample
        .iter()
        .map(|indices| {
            let members: Vec<&SoloProfile> = indices.iter().map(|&i| &study.profiles[i]).collect();
            elastic_sweep(&members, &study.config, steps)
                .into_iter()
                .map(|e| e.result.cost)
                .collect()
        })
        .collect();

    let mut csv = Csv::with_header(&["theta", "mean_group_mr", "mean_loss_vs_optimal_pct"]);
    println!(
        "\nElastic guarantee sweep (mean over {} groups):",
        sample.len()
    );
    println!(
        "{:>6} {:>15} {:>18}",
        "theta", "mean group mr", "loss vs optimal"
    );
    let optimal_mean: f64 = per_group.iter().map(|g| g[0]).sum::<f64>() / per_group.len() as f64;
    for i in 0..=steps {
        let theta = i as f64 / steps as f64;
        let mean: f64 = per_group.iter().map(|g| g[i]).sum::<f64>() / per_group.len() as f64;
        let loss = (mean / optimal_mean - 1.0) * 100.0;
        println!("{theta:>6.1} {mean:>15.5} {loss:>17.2}%");
        csv.row_mixed(&[], &[theta, mean, loss]);
    }
    println!("\n(θ = 0 is unconstrained Optimal; θ = 1 is the Equal baseline of");
    println!(" Section VI. The knee of this curve is how much guarantee the");
    println!(" group can afford almost for free.)");

    csv.save("elastic.csv")
}
