//! Experiment E12 — phase-aware partitioning on the Figure 1 workload.
//!
//! Closes the loop on the motivating example: static partitioning and
//! free-for-all both fail the anti-phase pair; partition-sharing fixes
//! it by leaving a fence down; phase-aware *re-drawing* of the fences
//! (per-segment DP, `cps-core::phased`) recovers the same performance
//! while keeping every program protected at every instant. All four are
//! measured with the exact LRU simulator, repartitioning transients
//! included.

use cps_bench::{Csv, Ctx};
use cps_cachesim::{simulate_partition_sharing, simulate_shared_warm, PartitionSharingScheme};
use cps_core::phased::{phase_aware_partition, simulate_phase_partitioned_program, PhasedProfile};
use cps_core::{optimal_partition, CacheConfig, CostCurve, Objective};
use cps_hotl::SoloProfile;
use cps_trace::{interleave_proportional, Trace, WorkloadSpec};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    let cache = 160usize;
    let segment = 2_000usize;
    let segments = 30usize;
    let len = segment * segments;

    // Figure 1: two streamers + two anti-phase cores.
    let stream = WorkloadSpec::SequentialLoop { working_set: 4000 };
    let big = WorkloadSpec::SequentialLoop { working_set: 120 };
    let small = WorkloadSpec::SequentialLoop { working_set: 4 };
    let core3 = WorkloadSpec::Phased {
        phases: vec![
            (big.clone(), segment as u64),
            (small.clone(), segment as u64),
        ],
    };
    let core4 = WorkloadSpec::Phased {
        phases: vec![(small, segment as u64), (big, segment as u64)],
    };
    let specs = [stream.clone(), stream, core3, core4];
    let traces: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(i, w)| w.generate(len, i as u64 + 1))
        .collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let co = interleave_proportional(&refs, &[1.0; 4], len * 4);
    let warm = len; // quarter of the merged trace

    let mut csv = Csv::with_header(&["scheme", "group_miss_ratio", "reconfigurations"]);
    println!("Figure 1 workload, {cache}-block cache, phases of {segment} accesses\n");

    // 1. Free-for-all (simulated).
    let ffa = simulate_shared_warm(&co, cache, 4, warm).group_miss_ratio();
    println!("{:<28} {ffa:.4}", "free-for-all");
    csv.row_mixed(&["free-for-all", "0"], &[ffa]);

    // 2. Static optimal partitioning: whole-trace profiles + one DP.
    let cfg = CacheConfig::new(cache, 1);
    let profiles: Vec<SoloProfile> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| SoloProfile::from_trace(format!("core{i}"), &t.blocks, 1.0, cache))
        .collect();
    let costs: Vec<CostCurve> = profiles
        .iter()
        .map(|p| CostCurve::from_miss_ratio(&p.mrc, &cfg, 0.25))
        .collect();
    let static_alloc = optimal_partition(&costs, cache, &Objective::MissRatioSum)
        .expect("feasible")
        .allocation;
    let static_mr = {
        let mut acc = 0u64;
        let mut mis = 0u64;
        for (t, &cap) in traces.iter().zip(&static_alloc) {
            let (a, m) = simulate_phase_partitioned_program(&t.blocks, len, &[cap]);
            acc += a;
            mis += m;
        }
        mis as f64 / acc as f64
    };
    println!(
        "{:<28} {static_mr:.4}   (allocation {static_alloc:?})",
        "static optimal partitioning"
    );
    csv.row_mixed(&["static-optimal", "0"], &[static_mr]);

    // 3. Partition-sharing (fence streamers, share the rest).
    let ps_scheme = PartitionSharingScheme {
        groups: vec![vec![0], vec![1], vec![2, 3]],
        sizes: vec![1, 1, cache - 2],
    };
    let ps = simulate_partition_sharing(&co, &ps_scheme, 4, warm).group_miss_ratio();
    println!("{:<28} {ps:.4}", "partition-sharing");
    csv.row_mixed(&["partition-sharing", "0"], &[ps]);

    // 4. Phase-aware partitioning: per-segment profiles + per-segment DP.
    let phased: Vec<PhasedProfile> = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            PhasedProfile::from_trace(format!("core{i}"), &t.blocks, 1.0, cache, segments)
        })
        .collect();
    let refs: Vec<&PhasedProfile> = phased.iter().collect();
    let plan = phase_aware_partition(&refs, &cfg, 0.02);
    let mut acc = 0u64;
    let mut mis = 0u64;
    for (p, t) in (0..4).zip(&traces) {
        let caps: Vec<usize> = plan.allocations.iter().map(|a| a[p]).collect();
        let (a, m) = simulate_phase_partitioned_program(&t.blocks, segment, &caps);
        acc += a;
        mis += m;
    }
    let phase_mr = mis as f64 / acc as f64;
    println!(
        "{:<28} {phase_mr:.4}   ({} repartitionings over {} segments)",
        "phase-aware partitioning",
        plan.reconfigurations(),
        segments
    );
    csv.row_mixed(
        &["phase-aware", &plan.reconfigurations().to_string()],
        &[phase_mr],
    );

    println!();
    if phase_mr < static_mr && phase_mr < ffa {
        println!("phase-aware partitioning matches partition-sharing's fix");
        println!("({phase_mr:.4} vs {ps:.4}) while keeping every core fenced at");
        println!("every instant — the fences just move with the phases.");
    } else {
        println!("WARNING: expected phase-aware to beat static and free-for-all");
    }

    csv.save("phase_aware.csv")
}
