//! Child processes timed and accounted from outside: wall clock from
//! spawn to exit, user+sys CPU from `/proc/<pid>/stat`, peak resident
//! set from polled `VmHWM`.
//!
//! A child that has exited but is not yet reaped stays readable in
//! `/proc` as a zombie with its final CPU totals, so the watcher polls
//! until it sees state `Z`, takes the totals, and only then reaps.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit is detected to within one poll: 2 ms on passes of ~1 s, for
/// about 1% of a core per watched child.
const POLL: Duration = Duration::from_millis(2);
/// `/proc/<pid>/status` is the bigger read; `VmHWM` only ever grows,
/// so every 4th poll is enough.
const STATUS_EVERY: u32 = 4;

/// What one finished child cost.
#[derive(Clone, Debug)]
pub struct Usage {
    pub spawned: Instant,
    pub exited: Instant,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
    pub success: bool,
    /// CPU of the peer process (see [`Watch::set_peer`]) at the moment
    /// this child exited.
    pub peer_cpu_s: Option<f64>,
    pub stdout: PathBuf,
    pub stderr: PathBuf,
}

impl Usage {
    pub fn wall_s(&self) -> f64 {
        self.exited.duration_since(self.spawned).as_secs_f64()
    }

    pub fn stdout_text(&self) -> String {
        std::fs::read_to_string(&self.stdout).unwrap_or_default()
    }

    /// Both output streams, for an error message.
    pub fn output_tail(&self) -> String {
        let tail = |p: &Path| {
            let text = std::fs::read_to_string(p).unwrap_or_default();
            let lines: Vec<&str> = text.lines().collect();
            lines[lines.len().saturating_sub(12)..].join("\n")
        };
        format!(
            "stdout:\n{}\nstderr:\n{}",
            tail(&self.stdout),
            tail(&self.stderr)
        )
    }
}

/// A running child with its watcher thread.
pub struct Watch {
    pid: u32,
    peer: Arc<AtomicU32>,
    handle: JoinHandle<Usage>,
}

impl Watch {
    /// Spawns `cmd` with stdout/stderr redirected to `<log>.out` /
    /// `<log>.err` (files, so a chatty child can never block on a
    /// pipe nobody drains) and starts watching it.
    pub fn spawn(mut cmd: Command, log: &Path) -> Result<Watch, String> {
        let stdout = log.with_extension("out");
        let stderr = log.with_extension("err");
        let open = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
        cmd.stdin(Stdio::null())
            .stdout(open(&stdout)?)
            .stderr(open(&stderr)?);
        let spawned = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let pid = child.id();
        let peer = Arc::new(AtomicU32::new(0));
        let peer_in = Arc::clone(&peer);
        let handle = std::thread::spawn(move || watch(child, spawned, &peer_in, stdout, stderr));
        Ok(Watch { pid, peer, handle })
    }

    pub fn pid(&self) -> u32 {
        self.pid
    }

    /// Names a second process whose CPU is sampled at the instant this
    /// one exits — the load generator's cost up to daemon shutdown,
    /// before it goes on to verify the run.
    pub fn set_peer(&self, pid: u32) {
        self.peer.store(pid, Ordering::SeqCst);
    }

    pub fn finished(&self) -> bool {
        self.handle.is_finished()
    }

    /// Waits for the child to exit.
    pub fn join(self) -> Result<Usage, String> {
        self.handle
            .join()
            .map_err(|_| "process watcher panicked".to_string())
    }

    /// Kills the child (if still running) and waits for it.
    pub fn kill(self) -> Result<Usage, String> {
        // SIGKILL via /bin/kill: std only offers kill() on the Child,
        // which the watcher thread owns.
        let _ = Command::new("kill")
            .args(["-9", &self.pid.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        self.join()
    }
}

fn watch(
    mut child: Child,
    spawned: Instant,
    peer: &AtomicU32,
    stdout: PathBuf,
    stderr: PathBuf,
) -> Usage {
    let pid = child.id();
    let tick = clock_tick_s();
    let mut cpu_ticks = 0u64;
    let mut peak_rss_kb = 0u64;
    let mut polls = 0u32;
    let exited = loop {
        match read_stat(pid) {
            Some((state, ticks)) => {
                cpu_ticks = ticks;
                if state == 'Z' {
                    break Instant::now();
                }
            }
            // Unreadable stat: the pid is ours until reaped, so this is
            // a /proc hiccup; fall back to a blocking wait.
            None => break Instant::now(),
        }
        if polls.is_multiple_of(STATUS_EVERY) {
            if let Some(kb) = read_vm_hwm_kb(pid) {
                peak_rss_kb = peak_rss_kb.max(kb);
            }
        }
        polls = polls.wrapping_add(1);
        std::thread::sleep(POLL);
    };
    let peer_pid = peer.load(Ordering::SeqCst);
    let peer_cpu_s = (peer_pid != 0)
        .then(|| read_stat(peer_pid))
        .flatten()
        .map(|(_, ticks)| ticks as f64 * tick);
    let success = child.wait().map(|s| s.success()).unwrap_or(false);
    Usage {
        spawned,
        exited,
        cpu_s: cpu_ticks as f64 * tick,
        peak_rss_kb,
        success,
        peer_cpu_s,
        stdout,
        stderr,
    }
}

/// `(state, utime + stime in clock ticks)` of a live or zombie pid.
fn read_stat(pid: u32) -> Option<(char, u64)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_stat(&text)
}

/// The command name sits in parentheses and may itself contain spaces
/// or parentheses, so fields are counted from the *last* `)`: state is
/// field 3, utime 14, stime 15.
fn parse_stat(text: &str) -> Option<(char, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let state = fields.first()?.chars().next()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((state, utime + stime))
}

fn read_vm_hwm_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vm_hwm_kb(&text)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Seconds per `/proc` clock tick (`getconf CLK_TCK`; 100 Hz on every
/// Linux this runs on, which is also the fallback).
fn clock_tick_s() -> f64 {
    static TICK: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICK.get_or_init(|| {
        let hz = Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|&hz| hz > 0.0)
            .unwrap_or(100.0);
        1.0 / hz
    })
}

/// Runs a short helper command to completion, returning its stdout.
pub fn run_capture(cmd: &mut Command) -> Result<String, String> {
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("run {:?}: {e}", cmd.get_program()))?;
    if !out.status.success() {
        return Err(format!(
            "{:?} {:?} failed ({}):\n{}{}",
            cmd.get_program(),
            cmd.get_args().collect::<Vec<_>>(),
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let line = "4242 (cps) serve) S 1 4242 4242 0 -1 4194304 100 0 0 0 37 5 0 0 20 0 2 0 1 2 3";
        assert_eq!(parse_stat(line), Some(('S', 42)));
        let zombie = "7 (x) Z 1 7 7 0 -1 0 0 0 0 0 9 1 0 0 20 0 1 0 1 0 0";
        assert_eq!(parse_stat(zombie), Some(('Z', 10)));
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tcps\nVmPeak:\t  9000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(5120));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\n"), None);
    }

    #[test]
    fn watcher_accounts_a_real_child() {
        let dir = crate::workloads::work_root().join(format!("test-proc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo hello; i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done",
        ]);
        let usage = Watch::spawn(cmd, &dir.join("child"))
            .unwrap()
            .join()
            .unwrap();
        assert!(usage.success);
        assert_eq!(usage.stdout_text().trim(), "hello");
        assert!(usage.wall_s() > 0.0);
        assert!(usage.peak_rss_kb > 0, "VmHWM was polled at least once");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
