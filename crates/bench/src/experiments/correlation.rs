//! Experiment E14 — the locality–performance correlation
//! (Section VIII, "Locality-performance Correlation").
//!
//! Wang et al. measured a 0.938 linear correlation between the
//! HOTL-predicted co-run miss ratio and real execution time over all
//! 1820 4-program groups — the paper's license to optimize miss ratio as
//! a proxy for time. We replicate the experiment inside the framework:
//! for a sample of co-run groups, (1) *predict* the shared-cache group
//! miss ratio from solo profiles (composition, no simulation), and
//! (2) *measure* the group's throughput by actually simulating the
//! interleaved traces in a shared LRU cache and converting the measured
//! misses to cycles with the linear CPI model. The Pearson r between
//! prediction and measurement is the figure of merit.
//!
//! (The CPI model makes time linear in *measured* misses by definition;
//! what the correlation tests is the *prediction* — how well composed
//! solo profiles anticipate the measured co-run behaviour.)

use cps_bench::{quick_mode, Csv, Ctx};
use cps_cachesim::simulate_shared_warm;
use cps_core::perf::PerfModel;
use cps_core::sweep::all_k_subsets;
use cps_dstruct::stats::pearson;
use cps_hotl::CoRunModel;
use cps_trace::spec_like::study_programs_scaled;
use cps_trace::{interleave_proportional, Trace};

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let study = ctx.study();
    let trace_len = if quick_mode() { 60_000 } else { 250_000 };
    let specs = study_programs_scaled(trace_len);
    let traces: Vec<Trace> = specs.iter().map(|s| s.trace()).collect();
    let cache = study.config.blocks();
    let model = PerfModel::default();

    let groups = all_k_subsets(study.len(), 4);
    let step = if quick_mode() { 91 } else { 18 }; // ~101 groups at full scale
    let sample: Vec<&Vec<usize>> = groups.iter().step_by(step).collect();
    eprintln!("correlating {} groups", sample.len());

    let rows: Vec<(String, f64, f64, f64)> = sample
        .iter()
        .map(|indices| {
            let label = indices
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join("+");
            // Predicted group miss ratio from solo profiles only.
            let members: Vec<_> = indices.iter().map(|&i| &study.profiles[i]).collect();
            let corun = CoRunModel::new(members);
            let predicted = corun.shared_group_miss_ratio(cache as f64);
            // Measured: simulate the interleaved co-run.
            let refs: Vec<&Trace> = indices.iter().map(|&i| &traces[i]).collect();
            let rates: Vec<f64> = indices.iter().map(|&i| specs[i].access_rate).collect();
            let share_sum: f64 = rates.iter().sum();
            let limit = refs
                .iter()
                .zip(&rates)
                .map(|(t, r)| t.len() as f64 * share_sum / r)
                .fold(f64::MAX, f64::min) as usize;
            let co = interleave_proportional(&refs, &rates, limit);
            let warm = co.len() / 4;
            let sim = simulate_shared_warm(&co, cache, 4, warm);
            let measured_mr = sim.group_miss_ratio();
            // Cycles per access under the linear CPI model, from the
            // *measured* miss ratio.
            let measured_cpa = model.cpi(measured_mr) / model.accesses_per_instr;
            (label, predicted, measured_mr, measured_cpa)
        })
        .collect();

    let predicted: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let measured_mr: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let measured_time: Vec<f64> = rows.iter().map(|r| r.3).collect();

    let r_mr = pearson(&predicted, &measured_mr).unwrap_or(f64::NAN);
    let r_time = pearson(&predicted, &measured_time).unwrap_or(f64::NAN);
    let mean_abs: f64 = predicted
        .iter()
        .zip(&measured_mr)
        .map(|(p, m)| (p - m).abs())
        .sum::<f64>()
        / rows.len() as f64;

    let mut csv = Csv::with_header(&[
        "group",
        "predicted_group_mr",
        "measured_group_mr",
        "measured_cycles_per_access",
    ]);
    for (label, p, m, t) in &rows {
        csv.row_mixed(&[label], &[*p, *m, *t]);
    }

    println!(
        "\nLocality-performance correlation over {} co-run groups:",
        rows.len()
    );
    println!("  Pearson r (predicted mr vs measured mr):   {r_mr:.3}");
    println!("  Pearson r (predicted mr vs measured time): {r_time:.3}");
    println!("  mean |predicted − measured| miss ratio:    {mean_abs:.5}");
    println!("\n(Wang et al., cited in Section VIII, measured r = 0.938 between");
    println!(" HOTL-predicted miss ratio and real co-run execution time; here");
    println!(" the 'hardware' is the exact LRU simulator + linear CPI model.)");

    csv.save("correlation.csv")
}
