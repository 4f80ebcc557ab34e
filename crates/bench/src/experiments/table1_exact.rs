//! Experiment E17 — model sensitivity: Table I recomputed from
//! simulator-exact solo MRCs.
//!
//! The DP's optimality is a property of whatever curves it is fed; only
//! the *Natural* scheme intrinsically needs the HOTL model (for the
//! natural partition). This experiment replaces every program's
//! HOTL-derived miss-ratio curve with the exact Olken/LRU curve from the
//! same trace and re-runs the whole 1820-group evaluation. If the
//! headline improvements survive, the paper's conclusions do not hinge
//! on the model's approximation error — they hinge on the curves'
//! *shapes*, which both derivations agree on.

use cps_bench::{default_trace_len, pct, Csv, Ctx};
use cps_cachesim::exact_miss_ratio_curve;
use cps_core::sweep::{sweep_groups, table1, Study};
use cps_hotl::{MissRatioCurve, SoloProfile};
use cps_trace::spec_like::study_programs_scaled;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    // HOTL-model study (the baseline numbers).
    let model_study = ctx.study();
    let model_rows = table1(ctx.sweep());

    // Exact study: same traces, MRCs measured by the Olken pass.
    let specs = study_programs_scaled(default_trace_len());
    let config = model_study.config;
    let profiles: Vec<SoloProfile> = specs
        .iter()
        .map(|spec| {
            let trace = spec.trace();
            // Keep the HOTL footprint (needed for the natural partition)
            // but substitute the exact LRU miss-ratio curve.
            let mut p = SoloProfile::from_trace(
                spec.name,
                &trace.blocks,
                spec.access_rate,
                config.blocks(),
            );
            let exact = exact_miss_ratio_curve(&trace.blocks, config.blocks());
            p.mrc = MissRatioCurve::from_samples(exact);
            p
        })
        .collect();
    let exact_study = Study { profiles, config };
    let exact_records = sweep_groups(&exact_study, 4);
    let exact_rows = table1(&exact_records);

    let mut csv = Csv::with_header(&[
        "versus",
        "model_avg_pct",
        "exact_avg_pct",
        "model_ge10_pct",
        "exact_ge10_pct",
    ]);
    println!("\nTable I under HOTL-model vs simulator-exact solo MRCs:");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "versus", "model avg", "exact avg", "model >=10%", "exact >=10%"
    );
    for (m, e) in model_rows.iter().zip(&exact_rows) {
        assert_eq!(m.versus, e.versus);
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>12}",
            m.versus.name(),
            pct(m.summary.mean),
            pct(e.summary.mean),
            pct(m.improved_10pct * 100.0),
            pct(e.improved_10pct * 100.0),
        );
        csv.row_mixed(
            &[m.versus.name()],
            &[
                m.summary.mean,
                e.summary.mean,
                m.improved_10pct * 100.0,
                e.improved_10pct * 100.0,
            ],
        );
    }
    println!("\n(Agreement here means the paper's conclusions rest on the shapes");
    println!(" of the miss-ratio curves — which model and simulator agree on —");
    println!(" not on the HOTL approximation itself.)");

    csv.save("table1_exact.csv")
}
