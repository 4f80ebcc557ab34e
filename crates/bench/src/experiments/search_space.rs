//! Experiment E1 — Section II's search-space arithmetic.
//!
//! Reproduces the worked example: 4 programs on an 8 MB cache of 64 B
//! units (`C = 131072`) give `S2 = 375,368,690,761,743` partition-sharing
//! options, of which partitioning-only covers
//! `S3 = 375,317,149,057,025` (99.99%), and the evaluation scale
//! (`C = 1024` 8 KB units) gives "nearly 180 million" options per group.

use cps_bench::{Csv, Ctx};
use cps_combin::{s1_sharing_multi_cache, s2_partition_sharing, s3_partitioning_only};

fn fmt_u128(v: u128) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

pub fn run(_ctx: &Ctx) -> Result<(), String> {
    println!("Search-space sizes (Section II)\n");
    let mut csv = Csv::with_header(&[
        "npr",
        "cache_units",
        "s2_partition_sharing",
        "s3_partitioning_only",
        "coverage",
    ]);

    for (label, npr, c) in [
        ("paper worked example (64B units)", 4u64, 131_072u64),
        ("paper evaluation scale (8KB units)", 4, 1_024),
        ("8 programs, 1024 units", 8, 1_024),
    ] {
        println!("{label}: npr = {npr}, C = {c}");
        match (s2_partition_sharing(npr, c), s3_partitioning_only(npr, c)) {
            (Some(s2), Some(s3)) => {
                let coverage = s3 as f64 / s2 as f64;
                println!("  S2 (partition-sharing)  = {}", fmt_u128(s2));
                println!("  S3 (partitioning only)  = {}", fmt_u128(s3));
                println!("  coverage S3/S2          = {:.6}%", coverage * 100.0);
                csv.row_mixed(
                    &[
                        &npr.to_string(),
                        &c.to_string(),
                        &s2.to_string(),
                        &s3.to_string(),
                    ],
                    &[coverage],
                );
            }
            _ => println!("  (overflows u128 at this scale)"),
        }
        println!();
    }

    println!("S1 (sharing only, multiple caches), npr=4:");
    for nc in 1..=4u64 {
        println!(
            "  {} caches: S(4,{nc}) = {}",
            nc,
            fmt_u128(s1_sharing_multi_cache(4, nc).unwrap())
        );
    }

    println!(
        "\nDP cost at the evaluation scale: P*C^2 = 4 * 1024^2 = {} steps",
        4u64 * 1024 * 1024
    );
    println!("(about 4 million, vs 180 million exhaustive — Section VII-A)");

    csv.save("search_space.csv")
}
