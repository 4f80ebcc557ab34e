//! Ablation A4 — the machine-model idealizations (Section VIII).
//!
//! The theory targets fully-associative LRU; real LLCs are
//! set-associative and may run an LRU *approximation*. Following the
//! paper's discussion (which defers to Xiang et al.'s hardware
//! validation and Sen & Wood's non-LRU modeling), we measure each study
//! program's miss ratio in 8/16-way set-associative LRU and in a CLOCK
//! (second-chance) cache at several sizes, against the
//! fully-associative LRU simulator and the HOTL model.

use cps_bench::{quick_mode, Csv, Ctx};
use cps_cachesim::{simulate_solo, ClockCache, SetAssocCache};
use cps_hotl::SoloProfile;
use cps_trace::spec_like::study_programs_scaled;

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let trace_len = if quick_mode() { 60_000 } else { 300_000 };
    let specs = study_programs_scaled(trace_len);
    let sizes: &[usize] = &[256, 512, 1024];
    let ways: &[usize] = &[8, 16];

    /// One (program, capacity) measurement row.
    type Row = (String, usize, f64, f64, Vec<f64>, f64, Vec<f64>);
    let rows: Vec<Row> = specs
        .iter()
        .flat_map(|spec| {
            let trace = spec.trace();
            let profile = SoloProfile::from_trace(spec.name, &trace.blocks, spec.access_rate, 1024);
            sizes
                .iter()
                .map(|&cap| {
                    let fa = simulate_solo(&trace.blocks, cap).miss_ratio();
                    let model = profile.mrc.at(cap);
                    let sa: Vec<f64> = ways
                        .iter()
                        .map(|&w| {
                            let mut cache = SetAssocCache::with_capacity(cap, w);
                            cache.simulate(&trace.blocks).miss_ratio()
                        })
                        .collect();
                    let clock = ClockCache::new(cap).simulate(&trace.blocks).miss_ratio();
                    // Smith's statistical set-associativity estimate,
                    // from the (fully-associative) model MRC alone.
                    let smith: Vec<f64> = ways
                        .iter()
                        .map(|&w| cps_hotl::assoc::smith_for_capacity(&profile.mrc, cap, w))
                        .collect();
                    (spec.name.to_string(), cap, fa, model, sa, clock, smith)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut csv = Csv::with_header(&[
        "program",
        "capacity",
        "fully_assoc",
        "hotl_model",
        "assoc8",
        "assoc16",
        "clock",
        "smith8",
        "smith16",
    ]);
    let mut err8 = Vec::new();
    let mut err16 = Vec::new();
    let mut errm = Vec::new();
    let mut errc = Vec::new();
    let mut errs8 = Vec::new();
    let mut errs16 = Vec::new();
    for (name, cap, fa, model, sa, clock, smith) in &rows {
        csv.row_mixed(
            &[name, &cap.to_string()],
            &[*fa, *model, sa[0], sa[1], *clock, smith[0], smith[1]],
        );
        err8.push((sa[0] - fa).abs());
        err16.push((sa[1] - fa).abs());
        errm.push((model - fa).abs());
        errc.push((clock - fa).abs());
        errs8.push((smith[0] - sa[0]).abs());
        errs16.push((smith[1] - sa[1]).abs());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let max = |v: &[f64]| v.iter().fold(0.0f64, |a, &b| a.max(b));
    println!(
        "Machine-model check over {} (program, size) points:",
        rows.len()
    );
    println!(
        "  |8-way  − fully-assoc|: mean {:.5}, max {:.5}",
        mean(&err8),
        max(&err8)
    );
    println!(
        "  |16-way − fully-assoc|: mean {:.5}, max {:.5}",
        mean(&err16),
        max(&err16)
    );
    println!(
        "  |CLOCK  − fully-assoc|: mean {:.5}, max {:.5}",
        mean(&errc),
        max(&errc)
    );
    println!(
        "  |HOTL model − fully-assoc sim|: mean {:.5}, max {:.5}",
        mean(&errm),
        max(&errm)
    );
    println!(
        "  |Smith est. − 8-way sim|:  mean {:.5}, max {:.5}",
        mean(&errs8),
        max(&errs8)
    );
    println!(
        "  |Smith est. − 16-way sim|: mean {:.5}, max {:.5}",
        mean(&errs16),
        max(&errs16)
    );
    println!("\n(Small associativity and replacement-policy gaps are the paper's");
    println!(" license to model fully-associative LRU; the model-vs-simulator");
    println!(" line is our solo-profile accuracy on the same points.)");

    csv.save("assoc_check.csv")
}
