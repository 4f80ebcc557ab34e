//! The `cps-bench` binary at its command line, and the runner under a
//! test-only table.

use cps_bench::{run_experiments, Experiment};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicBool, Ordering};

/// `ID NAME CSV HEADER` per line: every row `cps-bench list` must print,
/// and the CSV (with its header row) the bin of that name wrote before
/// the bins became subcommands.
const ROWS: &str = "\
E1 search_space search_space.csv npr,cache_units,s2_partition_sharing,s3_partitioning_only,coverage
E2 figure1 figure1.csv scheme,group_miss_ratio,core1,core2,core3,core4
E3 fig5 fig5_member_miss_ratios.csv program,group,equal,natural,natural_baseline,equal_baseline,optimal
E4 fig6 fig6_group_miss_ratios.csv rank,natural,equal,natural_baseline,equal_baseline,optimal
E5 fig7 fig7_sttw_vs_optimal.csv rank,sttw,optimal
E6 table1 table1.csv versus,max_pct,avg_pct,median_pct,improved_10pct,improved_20pct
E7 validate_npa validate_npa.csv program,peer,predicted,measured,abs_error
E8 reduction reduction.csv group,optimal_partitioning,best_ps_quantized,best_ps_continuous,free_for_all,configs_examined
E11 multicache multicache.csv policy,kind,overall_miss_ratio,grouping
E12 phase_aware phase_aware.csv scheme,group_miss_ratio,reconfigurations
E13 elastic elastic.csv theta,mean_group_mr,mean_loss_vs_optimal_pct
E14 correlation correlation.csv group,predicted_group_mr,measured_group_mr,measured_cycles_per_access
E15 stress_study stress_study.csv group,free_for_all,static_optimal,phase_aware
E16 hypothesis hypothesis.csv program,weighted_mean_abs_err,max_abs_err_w64plus,buckets
E17 table1_exact table1_exact.csv versus,model_avg_pct,exact_avg_pct,model_ge10_pct,exact_ge10_pct
A1 ablation_granularity ablation_granularity.csv blocks_per_unit,units,mean_group_mr,mean_loss_vs_exact_pct,max_loss_vs_exact_pct,dp_micros_per_group
A2 ablation_groupsize ablation_groupsize.csv group_size,groups,avg_impr_vs_sttw_pct,sttw_ge10_pct,avg_impr_vs_natural_pct,avg_impr_vs_equal_pct
A3 ablation_sampling ablation_sampling.csv burst,coverage_pct,extrapolated,mean_mrc_abs_err,max_mrc_abs_err,mean_group_mr_sampled_alloc,mean_group_mr_full_alloc,mean_regret_pct
A4 assoc_check assoc_check.csv program,capacity,fully_assoc,hotl_model,assoc8,assoc16,clock,smith8,smith16
";

fn rows() -> Vec<[&'static str; 4]> {
    ROWS.lines()
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            f.try_into().expect("ID NAME CSV HEADER")
        })
        .collect()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cps-bench-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `cps-bench ARGS` in quick mode with its CSVs under `results`.
fn bench(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cps-bench"))
        .args(args)
        .env("CPS_QUICK", "1")
        .env("CPS_RESULTS_DIR", results)
        .output()
        .expect("spawn cps-bench")
}

#[test]
fn list_names_every_experiment_with_the_documented_id() {
    let dir = tempdir("list");
    let out = bench(&["list"], &dir);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let listed: Vec<Vec<&str>> = listed
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let expected: Vec<Vec<&str>> = rows().iter().map(|r| r[..2].to_vec()).collect();
    assert_eq!(listed, expected);

    // The IDs are the ones EXPERIMENTS.md files each name under.
    let doc =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md"))
            .expect("EXPERIMENTS.md");
    for [id, name, ..] in rows() {
        let heading = doc.lines().find(|l| {
            l.starts_with(&format!("## {id} — ")) || l.starts_with(&format!("**{id} — "))
        });
        let heading = heading.unwrap_or_else(|| panic!("EXPERIMENTS.md has no entry {id}"));
        assert!(heading.contains(&format!("`{name}`")), "{id}: {heading}");
    }

    // A typo is one line naming the valid spellings, not a silent no-op.
    let out = bench(&["fig6", "figure6"], &dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("cps-bench: unknown experiment `figure6`; valid: all, ablations,"));
    for [_, name, ..] in rows() {
        assert!(stderr.contains(name), "{stderr}");
    }
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// `all` from one process: the CSV set the fifteen bins wrote, and —
/// because fig6 and table1 now borrow a sweep fig5 already ran — the
/// same bytes those experiments write when they build it themselves.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs every experiment (minutes unoptimized); run with `cargo test --release -p cps-bench`"
)]
fn all_writes_the_bins_csv_set_and_the_shared_sweep_changes_no_byte() {
    let dir = tempdir("all");
    let out = bench(&["all"], &dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(stderr.matches("profiled 16 programs").count(), 1);
    // One shared k=4 sweep, plus table1_exact's over the exact MRCs.
    assert_eq!(stderr.matches("evaluated 1820 groups").count(), 1);

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let experiments = &rows()[..15];
    let mut expected: Vec<&str> = experiments.iter().map(|r| r[2]).collect();
    expected.sort();
    assert_eq!(written, expected);
    for [_, _, csv, header] in experiments {
        let text = std::fs::read_to_string(dir.join(csv)).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(*header), "{csv}");
        assert!(lines.next().is_some(), "{csv} has no data row");
    }

    for (name, csv) in [
        ("fig6", "fig6_group_miss_ratios.csv"),
        ("table1", "table1.csv"),
    ] {
        let alone = tempdir(name);
        assert!(bench(&[name], &alone).status.success());
        assert_eq!(
            std::fs::read(alone.join(csv)).unwrap(),
            std::fs::read(dir.join(csv)).unwrap(),
            "{csv} differs between `all` and `{name}` alone"
        );
        std::fs::remove_dir_all(&alone).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

static LATER_ROW_RAN: AtomicBool = AtomicBool::new(false);

#[test]
fn a_failing_row_is_named_and_later_rows_still_run() {
    let rows: [Experiment; 3] = [
        ("T1", "returns_err", |_| Err("no such input".into())),
        ("T2", "panics", |_| panic!("deliberate")),
        ("T3", "runs_after", |_| {
            LATER_ROW_RAN.store(true, Ordering::SeqCst);
            Ok(())
        }),
    ];
    let err = run_experiments(&rows).expect_err("two rows failed");
    assert_eq!(err, r#"failed experiments: ["returns_err", "panics"]"#);
    assert!(LATER_ROW_RAN.load(Ordering::SeqCst));
}

/// A CSV that cannot be written fails its experiment (the bins printed
/// a warning and exited 0).
#[test]
fn an_unwritable_results_dir_fails_the_experiment() {
    let dir = tempdir("unwritable");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, b"").unwrap();
    let out = bench(&["search_space"], &file.join("results"));
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--- search_space FAILED: could not write"),
        "{stderr}"
    );
    assert!(
        stderr.contains(r#"cps-bench: failed experiments: ["search_space"]"#),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
