//! `cps inspect` — parse, validate, and summarize an epoch event
//! journal written by `cps replay-online --journal` or `cps serve
//! --journal`. The positional `-` reads the journal from stdin. The
//! `journal OK:` line ends with the canonical digest
//! (`Journal::digest`) — for a served run, the one `cps bench-net`
//! prints after `report identity: OK`.
//!
//! Inspection is also the schema check: the journal must parse line by
//! line under the current schema version and its epoch lines must
//! cross-validate against the producer's summary totals and the run's
//! declared objective (the round-trip guarantee). Any drift — unknown
//! version or kind, a truncated file (`truncated after epoch N`: a
//! killed writer leaves a valid prefix), totals that don't add up — is
//! a hard error and a nonzero exit.
//!
//! The first non-blank line's `kind` picks the dialect: `tournament`
//! journals (from `cps tournament --journal`) render the comparison
//! table; everything else goes down the epoch-journal path.

use crate::common::{print_report, write_text_out, Args};
use crate::tournament::render_table;
use cache_partition_sharing::obs::{
    chrome_trace_json, parse_journal_line, JournalLine, TournamentJournal,
};
use cache_partition_sharing::prelude::*;
use std::io::{self, Write};

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["follow", "chrome-trace", "canonical"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let [path] = args.positional.as_slice() else {
        return Err("usage: cps inspect JOURNAL  (`-` reads from stdin)".into());
    };
    let follow: bool = args.get_parse("follow", false)?;
    let chrome_out = args.get("chrome-trace").map(str::to_string);
    let canonical_out = args.get("canonical").map(str::to_string);
    if follow && (chrome_out.is_some() || canonical_out.is_some()) {
        return Err(
            "--chrome-trace/--canonical need the finished journal; they \
                    cannot combine with --follow"
                .into(),
        );
    }
    if follow {
        return follow_journal(path);
    }
    let text = if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?
    };
    let label = if path == "-" {
        "<stdin>"
    } else {
        path.as_str()
    };
    if is_tournament(&text) {
        if chrome_out.is_some() {
            return Err(format!(
                "{label}: --chrome-trace exports epoch journals; tournament \
                 journals have no timeline"
            ));
        }
        let journal = TournamentJournal::parse(&text).map_err(|e| format!("{label}: {e}"))?;
        return print_report(|out| {
            writeln!(out, "tournament journal OK")?;
            write!(out, "{}", render_table(&journal))
        });
    }
    let journal = Journal::parse(&text).map_err(|e| format!("{label}: {e}"))?;
    if let Some(out) = &canonical_out {
        // The identity text the serve-path checks compare: the journal
        // with every wall-clock field zeroed. Two runs of the same
        // stream through the same engine — in process, over the wire,
        // or replayed from a trace file in any format — must produce
        // byte-identical canonical text.
        write_text_out(out, &journal.canonical())?;
        if out != "-" {
            println!(
                "canonical journal: {} epochs -> {out}",
                journal.epochs.len()
            );
        }
        return Ok(());
    }
    if let Some(out) = &chrome_out {
        write_text_out(out, &chrome_trace_json(&journal))?;
        if out != "-" {
            println!(
                "chrome trace: {} epochs -> {out} (load in a trace viewer)",
                journal.epochs.len()
            );
        }
        return Ok(());
    }

    print_report(|out| print_epoch_report(out, &journal))
}

/// The report of a validated epoch journal: the run line, totals,
/// migrations, then the four tables.
fn print_epoch_report(out: &mut dyn Write, journal: &Journal) -> io::Result<()> {
    let h = &journal.header;
    let s = &journal.summary;
    let digest = journal.digest();
    writeln!(
        out,
        "journal OK: {} engine, {} tenants, {} x {}-block units, epoch {}, \
         {} shard(s), policy {}, objective {}, digest {digest:016x}",
        h.engine, h.tenants, h.units, h.bpu, h.epoch_length, h.shards, h.policy, h.objective
    )?;
    writeln!(
        out,
        "{} epochs, {} accesses, cumulative miss ratio {:.4}; \
         {} repartitions moving {} units",
        s.epochs,
        s.accesses,
        journal.cumulative_miss_ratio(),
        s.repartitions,
        s.units_moved
    )?;
    if !journal.migrations.is_empty() {
        writeln!(out, "{} tenant migration(s):", journal.migrations.len())?;
        for m in &journal.migrations {
            match m.gain {
                Some(g) => writeln!(
                    out,
                    "  epoch {:>4}: tenant {} node {} -> {} (gain {:.4})",
                    m.epoch, m.tenant, m.from, m.to, g
                )?,
                None => writeln!(
                    out,
                    "  epoch {:>4}: tenant {} node {} -> {}",
                    m.epoch, m.tenant, m.from, m.to
                )?,
            }
        }
    }

    print_stage_breakdown(out, journal)?;
    print_churn_timeline(out, journal)?;
    print_trajectories(out, journal)?;
    print_node_spans(out, journal)
}

/// Tails a growing journal, printing each epoch line as it lands and
/// exiting once the producer writes its summary. Stdin blocks on the
/// pipe; files are polled for newly completed lines.
fn follow_journal(path: &str) -> Result<(), String> {
    let label = if path == "-" { "<stdin>" } else { path };
    let mut seen_header = false;
    let mut on_line = |line: &str| -> Result<bool, String> {
        if line.trim().is_empty() {
            return Ok(false);
        }
        match parse_journal_line(line).map_err(|e| format!("{label}: {e}"))? {
            JournalLine::Header(h) => {
                seen_header = true;
                println!(
                    "following {label}: {} engine, {} tenants, {} x {}-block \
                     units, epoch {}, objective {}",
                    h.engine, h.tenants, h.units, h.bpu, h.epoch_length, h.objective
                );
                println!(
                    "{:<7} {:>9} {:>9} {:>6}  allocation (units)",
                    "epoch", "accesses", "miss", "moved"
                );
                Ok(false)
            }
            JournalLine::Epoch(e) => {
                if !seen_header {
                    return Err(format!("{label}: epoch line before the run header"));
                }
                let alloc: Vec<String> = e.allocation.iter().map(|u| u.to_string()).collect();
                let mark = if e.repartitioned { "*" } else { " " };
                println!(
                    "{:<7} {:>9} {:>9.4} {:>5}{}  {}",
                    e.epoch,
                    e.accesses.iter().sum::<u64>(),
                    e.miss_ratio(),
                    e.units_moved,
                    mark,
                    alloc.join("/")
                );
                Ok(false)
            }
            JournalLine::Migration(m) => {
                println!("  migrate: tenant {} node {} -> {}", m.tenant, m.from, m.to);
                Ok(false)
            }
            JournalLine::Summary(s) => {
                println!(
                    "run finished: {} epochs, {} accesses, {} repartitions \
                     moving {} units",
                    s.epochs, s.accesses, s.repartitions, s.units_moved
                );
                Ok(true)
            }
        }
    };
    if path == "-" {
        use std::io::BufRead;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("read stdin: {e}"))?;
            if on_line(&line)? {
                return Ok(());
            }
        }
        return Err(format!("{label}: stream ended before the summary line"));
    }
    // The file stays open, so each poll reads only the bytes appended
    // since the last; `pending` holds a line the producer has not
    // finished yet.
    use std::io::Read;
    let mut file = std::fs::File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    let (mut offset, mut pending) = (0u64, Vec::new());
    loop {
        let read = file
            .read_to_end(&mut pending)
            .map_err(|e| format!("read {path}: {e}"))?;
        offset += read as u64;
        let len = file
            .metadata()
            .map_err(|e| format!("read {path}: {e}"))?
            .len();
        if len < offset {
            return Err(format!("{label}: journal shrank while following"));
        }
        let mut start = 0;
        while let Some(nl) = pending[start..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&pending[start..start + nl]).into_owned();
            start += nl + 1;
            if on_line(line.trim_end())? {
                return Ok(());
            }
        }
        pending.drain(..start);
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}

/// Where the run's wall clock went, stage by stage.
fn print_stage_breakdown(out: &mut dyn Write, journal: &Journal) -> io::Result<()> {
    let totals = &journal.summary.timings;
    let all = totals.total_nanos();
    let epochs = journal.summary.epochs.max(1) as f64;
    writeln!(out, "\nstage time breakdown")?;
    writeln!(
        out,
        "{:<9} {:>12} {:>7} {:>12}",
        "stage", "total", "share", "mean/epoch"
    )?;
    for (stage, nanos) in totals.iter() {
        let share = if all == 0 {
            0.0
        } else {
            nanos as f64 / all as f64 * 100.0
        };
        writeln!(
            out,
            "{:<9} {:>10.2}ms {:>6.1}% {:>10.1}us",
            stage.name(),
            nanos as f64 / 1e6,
            share,
            nanos as f64 / epochs / 1e3
        )?;
    }
    writeln!(
        out,
        "{:<9} {:>10.2}ms {:>6.1}%",
        "total",
        all as f64 / 1e6,
        if all == 0 { 0.0 } else { 100.0 }
    )
}

/// Per-epoch allocation churn: what moved, when, and what it bought.
fn print_churn_timeline(out: &mut dyn Write, journal: &Journal) -> io::Result<()> {
    writeln!(
        out,
        "\nallocation churn (`*` = repartitioned at this boundary)"
    )?;
    writeln!(
        out,
        "{:<7} {:>9} {:>9} {:>6}  allocation (units)",
        "epoch", "accesses", "miss", "moved"
    )?;
    for e in &journal.epochs {
        let alloc: Vec<String> = e.allocation.iter().map(|u| u.to_string()).collect();
        let mark = if e.repartitioned { "*" } else { " " };
        writeln!(
            out,
            "{:<7} {:>9} {:>9.4} {:>5}{}  {}",
            e.epoch,
            e.accesses.iter().sum::<u64>(),
            e.miss_ratio(),
            e.units_moved,
            mark,
            alloc.join("/")
        )?;
    }
    Ok(())
}

/// Per-tenant miss-ratio trajectories, one sparkline per tenant.
fn print_trajectories(out: &mut dyn Write, journal: &Journal) -> io::Result<()> {
    writeln!(out, "\ntenant miss-ratio trajectories (idle epoch = 0.0)")?;
    for tenant in 0..journal.header.tenants {
        let traj = journal
            .tenant_trajectory(tenant)
            .expect("tenant in header range");
        let acc: u64 = journal.epochs.iter().map(|e| e.accesses[tenant]).sum();
        let mis: u64 = journal.epochs.iter().map(|e| e.misses[tenant]).sum();
        let cumulative = if acc == 0 {
            0.0
        } else {
            mis as f64 / acc as f64
        };
        writeln!(
            out,
            "t{tenant}: cumulative {:.4}  [{}]  {}",
            cumulative,
            sparkline(&traj),
            traj.iter()
                .map(|r| format!("{r:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
    }
    Ok(())
}

/// Per-node span breakdown for cluster journals: where each node spent
/// the cluster's epochs, correlated by the coordinator's trace ids.
fn print_node_spans(out: &mut dyn Write, journal: &Journal) -> io::Result<()> {
    let traced = journal.epochs.iter().filter(|e| e.trace.is_some()).count();
    let any_spans = journal.epochs.iter().any(|e| !e.spans.is_empty());
    if traced == 0 && !any_spans {
        return Ok(());
    }
    writeln!(
        out,
        "\ncluster trace correlation: {traced}/{} epochs carry a trace id",
        journal.epochs.len()
    )?;
    if !any_spans {
        return Ok(());
    }
    let mut nodes: Vec<usize> = journal
        .epochs
        .iter()
        .flat_map(|e| e.spans.iter().map(|s| s.node))
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    writeln!(
        out,
        "{:<6} {:>7} {:>12} {:>12}",
        "node", "spans", "profile", "actuate"
    )?;
    for node in nodes {
        let mut count = 0usize;
        let mut profile = 0u64;
        let mut actuate = 0u64;
        for span in journal
            .epochs
            .iter()
            .flat_map(|e| e.spans.iter())
            .filter(|s| s.node == node)
        {
            count += 1;
            profile = profile.saturating_add(span.timings.profile_nanos);
            actuate = actuate.saturating_add(span.timings.actuate_nanos);
        }
        writeln!(
            out,
            "n{:<5} {:>7} {:>10.2}ms {:>10.2}ms",
            node,
            count,
            profile as f64 / 1e6,
            actuate as f64 / 1e6
        )?;
    }
    Ok(())
}

/// Sniffs the journal dialect from the first non-blank line: a
/// `"kind":"tournament"` header means the tournament table renderer,
/// anything else (including garbage — let the epoch parser produce the
/// real error) means the epoch journal.
fn is_tournament(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| cache_partition_sharing::obs::json::parse(l).ok())
        .and_then(|v| v.get("kind").and_then(|k| k.as_str().map(str::to_string)))
        .is_some_and(|k| k == "tournament")
}

/// Eight-level ASCII-art sparkline scaled to the series maximum.
pub(crate) fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0_f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                LEVELS[0]
            } else {
                let idx = (v / max * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[idx.min(LEVELS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::sparkline;

    #[test]
    fn sparkline_scales_to_the_series_maximum() {
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
    }
}
