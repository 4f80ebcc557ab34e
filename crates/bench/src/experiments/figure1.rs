//! Experiment E2 — Figure 1: the motivating partition-sharing example.
//!
//! Two streaming cores pollute; two phase-alternating cores interlock.
//! Fencing off the streamers and letting the phase pair share beats both
//! pure partitioning and free-for-all sharing — the one regime
//! (synchronized phases) where the natural-partition reduction does not
//! apply. Measured with the exact LRU simulator, not the HOTL model,
//! because the model's random-phase assumption is deliberately violated
//! here (Section VIII, "Random Phase Interaction").

use cps_bench::{Csv, Ctx};
use cps_cachesim::{simulate_partition_sharing, simulate_shared_warm, PartitionSharingScheme};
use cps_trace::{interleave_proportional, Trace, WorkloadSpec};

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    // Scaled-up Figure 1: cache of 160 blocks, 4 cores.
    let cache = 160usize;
    let phase_len = 2_000u64;
    let len = 60_000usize;
    let stream = |seed: u64| WorkloadSpec::SequentialLoop { working_set: 4000 }.generate(len, seed);
    let phased = |first_big: bool, seed: u64| {
        let big = WorkloadSpec::SequentialLoop { working_set: 120 };
        let small = WorkloadSpec::SequentialLoop { working_set: 4 };
        let phases = if first_big {
            vec![(big, phase_len), (small, phase_len)]
        } else {
            vec![(small, phase_len), (big, phase_len)]
        };
        WorkloadSpec::Phased { phases }.generate(len, seed)
    };
    let traces: Vec<Trace> = vec![stream(1), stream(2), phased(true, 3), phased(false, 4)];
    let refs: Vec<&Trace> = traces.iter().collect();
    let co = interleave_proportional(&refs, &[1.0; 4], len * 4);
    let warm = len / 2;

    println!("Figure 1 (scaled): 2 streaming cores + 2 anti-phase cores, cache = {cache} blocks\n");
    let mut csv = Csv::with_header(&[
        "scheme",
        "group_miss_ratio",
        "core1",
        "core2",
        "core3",
        "core4",
    ]);

    let mut report = |name: &str, res: cps_cachesim::SharedSimResult| {
        let members: Vec<f64> = res.per_program.iter().map(|c| c.miss_ratio()).collect();
        println!(
            "{name:<22} group mr = {:.4}   per-core = [{:.3}, {:.3}, {:.3}, {:.3}]",
            res.group_miss_ratio(),
            members[0],
            members[1],
            members[2],
            members[3]
        );
        let mut floats = vec![res.group_miss_ratio()];
        floats.extend(members);
        csv.row_mixed(&[name], &floats);
        res.group_miss_ratio()
    };

    // Free-for-all sharing.
    let ffa = report("free-for-all", simulate_shared_warm(&co, cache, 4, warm));

    // Best static partitioning (streamers get 1 each; phase cores split).
    let half = (cache - 2) / 2;
    let partitioning = PartitionSharingScheme::partitioning(vec![1, 1, half, cache - 2 - half]);
    let pp = report(
        "best partitioning",
        simulate_partition_sharing(&co, &partitioning, 4, warm),
    );

    // Partition-sharing: fence streamers, share the rest between 3 and 4.
    let sharing = PartitionSharingScheme {
        groups: vec![vec![0], vec![1], vec![2, 3]],
        sizes: vec![1, 1, cache - 2],
    };
    let ps = report(
        "partition-sharing",
        simulate_partition_sharing(&co, &sharing, 4, warm),
    );

    println!();
    if ps < pp && ps < ffa {
        println!(
            "partition-sharing wins: {:.4} < partitioning {:.4} < free-for-all {:.4}",
            ps,
            pp,
            ffa.max(pp)
        );
        println!("(synchronized phases violate NPA, so the reduction to pure");
        println!(" partitioning does not hold for this adversarial trace)");
    } else {
        println!("WARNING: expected partition-sharing to win on this trace");
    }

    csv.save("figure1.csv")
}
