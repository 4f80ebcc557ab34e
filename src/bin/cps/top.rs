//! `cps top` — live dashboard over a running `cps serve` daemon.
//!
//! Subscribes to the daemon's telemetry stream (the SUBSCRIBE wire
//! verb) as a read-only observer: the server pushes every epoch record
//! as it lands plus periodic metrics-delta frames, and this command
//! renders them as a terminal dashboard refreshed in place. Nothing
//! here ingests or polls — a `cps top` session costs the daemon one
//! fan-out write per epoch.
//!
//! `--once true` waits for the first full metrics frame, prints one
//! plain snapshot, and exits — the scriptable mode the CI smoke leg
//! drives.

use crate::common::Args;
use cache_partition_sharing::obs::{json, parse_journal_line, EpochEvent, JournalLine, RunHeader};
use cache_partition_sharing::serve::{Observer, ObserverEvent, ServeError};
use std::collections::HashMap;
use std::time::Duration;

/// Miss-ratio history points kept for the sparkline.
const HISTORY: usize = 48;

/// Every flag this subcommand reads.
const FLAGS: &[&str] = &["refresh", "once"];

pub fn run(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw, &[FLAGS])?;
    let [addr] = args.positional.as_slice() else {
        return Err("usage: cps top HOST:PORT [--refresh MS] [--once true]  \
             (HOST:PORT is the daemon's wire address, not the telemetry port)"
            .into());
    };
    let refresh: u64 = args.get_parse("refresh", 1_000)?;
    if refresh == 0 {
        return Err("--refresh must be at least 1 millisecond (0 would ask \
                    the server to stream metrics frames back-to-back)"
            .into());
    }
    let once: bool = args.get_parse("once", false)?;

    let mut observer = Observer::subscribe(addr, refresh)
        .map_err(|e| format!("subscribe {addr}: {e} (is `cps serve` running there?)"))?;
    let header = match parse_journal_line(observer.header()) {
        Ok(JournalLine::Header(h)) => h,
        Ok(_) => return Err(format!("{addr}: subscribe ack was not a run header")),
        Err(e) => return Err(format!("{addr}: bad subscribe header: {e}")),
    };

    let mut dash = Dashboard::new(addr.clone(), header);
    if once {
        // One full metrics frame (the first frame the server sends) is
        // the whole snapshot; drain anything that arrived with it.
        loop {
            match observer.next_event(Some(Duration::from_secs(10))) {
                Ok(Some(event)) => {
                    let had_metrics = matches!(event, ObserverEvent::Metrics(_));
                    dash.absorb(event)?;
                    if had_metrics {
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) if is_timeout(&e) => {
                    return Err(format!("{addr}: no metrics frame within 10s"));
                }
                Err(e) => return Err(format!("{addr}: {e}")),
            }
        }
        print!("{}", dash.render());
        return Ok(());
    }

    loop {
        match observer.next_event(Some(Duration::from_millis(refresh))) {
            Ok(Some(event)) => {
                dash.absorb(event)?;
                // Coalesce frames that are already queued before
                // redrawing, so a burst of epochs paints once.
                loop {
                    match observer.next_event(Some(Duration::from_millis(1))) {
                        Ok(Some(event)) => dash.absorb(event)?,
                        Ok(None) => {
                            print!("\x1b[2J\x1b[H{}", dash.render());
                            println!("\nrun finished; server closed the stream");
                            return Ok(());
                        }
                        Err(e) if is_timeout(&e) => break,
                        Err(e) => return Err(format!("{addr}: {e}")),
                    }
                }
            }
            Ok(None) => {
                print!("\x1b[2J\x1b[H{}", dash.render());
                println!("\nrun finished; server closed the stream");
                return Ok(());
            }
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(format!("{addr}: {e}")),
        }
        print!("\x1b[2J\x1b[H{}", dash.render());
    }
}

fn is_timeout(e: &ServeError) -> bool {
    matches!(e, ServeError::Wire(w) if w.is_timeout())
}

/// Everything the dashboard knows, folded from pushed frames.
struct Dashboard {
    addr: String,
    header: RunHeader,
    latest: Option<EpochEvent>,
    epochs_seen: usize,
    history: Vec<f64>,
    /// Cumulative metric values by name; histograms land as
    /// `name/count` and `name/sum`.
    metrics: HashMap<String, f64>,
}

impl Dashboard {
    fn new(addr: String, header: RunHeader) -> Dashboard {
        Dashboard {
            addr,
            header,
            latest: None,
            epochs_seen: 0,
            history: Vec::new(),
            metrics: HashMap::new(),
        }
    }

    fn absorb(&mut self, event: ObserverEvent) -> Result<(), String> {
        match event {
            ObserverEvent::Epoch(line) => match parse_journal_line(&line) {
                Ok(JournalLine::Epoch(e)) => {
                    self.epochs_seen += 1;
                    self.history.push(e.miss_ratio());
                    if self.history.len() > HISTORY {
                        self.history.remove(0);
                    }
                    self.latest = Some(e);
                    Ok(())
                }
                Ok(_) => Err("epoch frame carried a non-epoch line".into()),
                Err(e) => Err(format!("bad epoch frame: {e}")),
            },
            ObserverEvent::Metrics(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let v = json::parse(line).map_err(|e| format!("bad metrics frame: {e}"))?;
                    let name = v
                        .get("metric")
                        .and_then(|m| m.as_str().map(str::to_string))
                        .ok_or("metrics line without a name")?;
                    match v.get("kind").and_then(|k| k.as_str()) {
                        Some("histogram") => {
                            if let Some(c) = v.get("count").and_then(|c| c.as_f64()) {
                                self.metrics.insert(format!("{name}/count"), c);
                            }
                            if let Some(s) = v.get("sum").and_then(|s| s.as_f64()) {
                                self.metrics.insert(format!("{name}/sum"), s);
                            }
                        }
                        _ => {
                            if let Some(val) = v.get("value").and_then(|x| x.as_f64()) {
                                self.metrics.insert(name, val);
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn render(&self) -> String {
        let h = &self.header;
        let mut out = String::new();
        out.push_str(&format!(
            "cps top — {} | {} engine, {} tenants, {} x {}-block units, \
             epoch {}, objective {}\n",
            self.addr, h.engine, h.tenants, h.units, h.bpu, h.epoch_length, h.objective
        ));
        out.push_str(&format!(
            "sessions {:.0} active / {:.0} total | records {:.0} | frames {:.0} | \
             observed epochs {}\n",
            self.metric("cps_serve_active_sessions"),
            self.metric("cps_serve_connections_total"),
            self.metric("cps_serve_records_total"),
            self.metric("cps_serve_frames_total"),
            self.epochs_seen
        ));
        let frame_count = self.metric("cps_serve_frame_nanos/count");
        if frame_count > 0.0 {
            out.push_str(&format!(
                "frame latency mean {:.1}us over {:.0} frames | \
                 batch drain mean {:.1}us over {:.0} feeds\n",
                self.metric("cps_serve_frame_nanos/sum") / frame_count / 1e3,
                frame_count,
                self.metric("cps_serve_batch_drain_nanos/sum")
                    / self.metric("cps_serve_batch_drain_nanos/count").max(1.0)
                    / 1e3,
                self.metric("cps_serve_batch_drain_nanos/count"),
            ));
        }
        match &self.latest {
            None => out.push_str("\nwaiting for the first epoch boundary...\n"),
            Some(e) => {
                let alloc: Vec<String> = e.allocation.iter().map(|u| u.to_string()).collect();
                out.push_str(&format!(
                    "\nepoch {} | allocation {} | moved {}{} | miss {:.4}\n",
                    e.epoch,
                    alloc.join("/"),
                    e.units_moved,
                    if e.repartitioned {
                        " (repartitioned)"
                    } else {
                        ""
                    },
                    e.miss_ratio()
                ));
                for t in 0..e.accesses.len() {
                    let ratio = if e.accesses[t] == 0 {
                        0.0
                    } else {
                        e.misses[t] as f64 / e.accesses[t] as f64
                    };
                    out.push_str(&format!(
                        "  t{t}: {:>4} units, {:>9} accesses, miss {:.4}\n",
                        e.allocation.get(t).copied().unwrap_or(0),
                        e.accesses[t],
                        ratio
                    ));
                }
                out.push_str(&format!(
                    "stage nanos: profile {} solve {} actuate {}\n",
                    e.timings.profile_nanos, e.timings.solve_nanos, e.timings.actuate_nanos
                ));
                out.push_str(&format!(
                    "group miss ratio [{}]\n",
                    crate::inspect::sparkline(&self.history)
                ));
            }
        }
        out
    }
}
