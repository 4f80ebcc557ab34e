//! Experiment E15 — the phase-stress study: where the paper's
//! assumptions fray, and what recovers the loss.
//!
//! Section VIII assumes "random phase interaction"; this study violates
//! it on purpose with an 8-program set dominated by synchronized
//! anti-phase pairs (`cps_trace::spec_like::stress_programs`). Two
//! measurements:
//!
//! 1. **NPA degradation** — composition-predicted vs simulator-measured
//!    per-program miss ratios over all pairs, side by side with the same
//!    statistic on the stationary base study (E7's mean error ~0.001).
//! 2. **Recovery** — for co-run groups containing an anti-phase pair,
//!    simulator-measured group miss ratios of free-for-all, static
//!    optimal partitioning, and phase-aware partitioning: the
//!    time-varying fences win back what the model-based static optimum
//!    loses.

use cps_bench::{quick_mode, Csv, Ctx};
use cps_cachesim::simulate_shared_warm;
use cps_core::phased::{phase_aware_partition, simulate_phase_partitioned_program, PhasedProfile};
use cps_core::sweep::all_k_subsets;
use cps_core::{optimal_partition, CacheConfig, CostCurve, Objective};
use cps_hotl::{CoRunModel, SoloProfile};
use cps_trace::spec_like::stress_programs;
use cps_trace::{interleave_proportional, Trace};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let trace_len = if quick_mode() { 48_000 } else { 192_000 };
    let cache = 1024usize;
    let cfg = CacheConfig::new(cache, 1);
    let specs = stress_programs(trace_len);
    let traces: Vec<Trace> = specs.iter().map(|s| s.trace()).collect();
    let profiles: Vec<SoloProfile> = specs
        .iter()
        .zip(&traces)
        .map(|(s, t)| SoloProfile::from_trace(s.name, &t.blocks, s.access_rate, cache))
        .collect();

    // --- 1. NPA error over all pairs --------------------------------------
    let pairs = all_k_subsets(specs.len(), 2);
    let errors: Vec<f64> = pairs
        .iter()
        .flat_map(|pair| {
            let (i, j) = (pair[0], pair[1]);
            let co = interleave_proportional(
                &[&traces[i], &traces[j]],
                &[1.0, 1.0],
                traces[i].len() + traces[j].len(),
            );
            let warm = co.len() / 3;
            let sim = simulate_shared_warm(&co, cache, 2, warm);
            let model = CoRunModel::new(vec![&profiles[i], &profiles[j]]);
            let predicted = model.member_shared_miss_ratios(cache as f64);
            vec![
                (predicted[0] - sim.per_program[0].miss_ratio()).abs(),
                (predicted[1] - sim.per_program[1].miss_ratio()).abs(),
            ]
        })
        .collect();
    let mean_err = errors.iter().sum::<f64>() / errors.len() as f64;
    let max_err = errors.iter().fold(0.0f64, |a, &b| a.max(b));
    println!(
        "Phase-stress study ({} accesses/program, {cache}-block cache)\n",
        trace_len
    );
    println!(
        "1. NPA error over {} per-program miss ratios:",
        errors.len()
    );
    println!("   mean |predicted - measured| = {mean_err:.4}");
    println!("   max  |predicted - measured| = {max_err:.4}");
    println!("   (the stationary base study, E7, measures mean ~0.001 —");
    println!("    synchronized phases cost orders of magnitude in accuracy)");

    // --- 2. Static vs phase-aware on phase-heavy 4-groups ------------------
    // Sample groups that contain at least one anti-phase pair.
    let groups: Vec<Vec<usize>> = all_k_subsets(specs.len(), 4)
        .into_iter()
        .filter(|g| {
            [(0usize, 1usize), (2, 3), (4, 5)]
                .iter()
                .any(|&(a, b)| g.contains(&a) && g.contains(&b))
        })
        .collect();
    let segment = 1_500usize; // finest phase length in the set
    let segments = trace_len / segment;
    let rows: Vec<(String, f64, f64, f64)> = groups
        .iter()
        .map(|indices| {
            let label = indices
                .iter()
                .map(|&i| specs[i].name.to_string())
                .collect::<Vec<_>>()
                .join("+");
            // Free-for-all, simulator-measured.
            let refs: Vec<&Trace> = indices.iter().map(|&i| &traces[i]).collect();
            let co = interleave_proportional(&refs, &[1.0; 4], trace_len * 4);
            let ffa = simulate_shared_warm(&co, cache, 4, trace_len).group_miss_ratio();
            // Static optimal from whole-trace profiles, simulated.
            let costs: Vec<CostCurve> = indices
                .iter()
                .map(|&i| CostCurve::from_miss_ratio(&profiles[i].mrc, &cfg, 0.25))
                .collect();
            let alloc = optimal_partition(&costs, cfg.units, &Objective::MissRatioSum)
                .expect("feasible")
                .allocation;
            let mut acc = 0u64;
            let mut mis = 0u64;
            for (slot, &i) in indices.iter().enumerate() {
                let (a, m) = simulate_phase_partitioned_program(
                    &traces[i].blocks,
                    trace_len,
                    &[alloc[slot]],
                );
                acc += a;
                mis += m;
            }
            let static_mr = mis as f64 / acc as f64;
            // Phase-aware, simulated with transients.
            let phased: Vec<PhasedProfile> = indices
                .iter()
                .map(|&i| {
                    PhasedProfile::from_trace(
                        specs[i].name,
                        &traces[i].blocks,
                        1.0,
                        cache,
                        segments,
                    )
                })
                .collect();
            let prefs: Vec<&PhasedProfile> = phased.iter().collect();
            let plan = phase_aware_partition(&prefs, &cfg, 0.02);
            let mut acc2 = 0u64;
            let mut mis2 = 0u64;
            for (slot, &i) in indices.iter().enumerate() {
                let caps: Vec<usize> = plan.allocations.iter().map(|a| a[slot]).collect();
                let (a, m) = simulate_phase_partitioned_program(&traces[i].blocks, segment, &caps);
                acc2 += a;
                mis2 += m;
            }
            let phase_mr = mis2 as f64 / acc2 as f64;
            (label, ffa, static_mr, phase_mr)
        })
        .collect();

    let mean = |f: fn(&(String, f64, f64, f64)) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    let (m_ffa, m_static, m_phase) = (mean(|r| r.1), mean(|r| r.2), mean(|r| r.3));
    println!(
        "\n2. {} phase-heavy 4-groups, simulator-measured group miss ratio:",
        rows.len()
    );
    println!("   free-for-all sharing        mean {m_ffa:.4}");
    println!("   static optimal partitioning mean {m_static:.4}");
    println!("   phase-aware partitioning    mean {m_phase:.4}");
    let recovered = if m_static > m_phase {
        (m_static - m_phase) / m_static * 100.0
    } else {
        0.0
    };
    println!("   phase-aware cuts the static optimum's miss ratio by {recovered:.1}%");

    let mut csv = Csv::with_header(&["group", "free_for_all", "static_optimal", "phase_aware"]);
    for (label, a, b, c) in &rows {
        csv.row_mixed(&[label], &[*a, *b, *c]);
    }
    csv.save("stress_study.csv")
}
