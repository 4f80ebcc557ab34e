//! Concurrent-session churn hygiene, in a test process of its own:
//! the test counts this process's threads through `/proc/self/status`,
//! so no neighbouring test may be running servers beside it.

mod common;

use common::{
    assert_identical, config, four_tenant_stream, round_robin_slice, start, wait_for_records,
};
use cps_serve::Client;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .map(|v| v.trim().parse().expect("thread count parses"))
        .expect("Threads: line present")
}

#[test]
fn concurrent_session_churn_leaves_no_residue() {
    let mut cfg = config(1, 4);
    cfg.max_conns = 32;
    cfg.resume_grace = Duration::from_millis(200);
    let engine_cfg = cfg.engine.clone();

    #[cfg(target_os = "linux")]
    let baseline = thread_count();
    let (addr, _, server, served) = start(cfg);

    let stream = four_tenant_stream(8_000, 5);
    let n = 4;
    let mut control = Client::connect(&addr, None).expect("control session");
    std::thread::scope(|scope| {
        // Churn: short-lived control sessions connecting, asking one
        // question (or nothing), and vanishing.
        for _ in 0..3 {
            let addr = addr.clone();
            scope.spawn(move || {
                for ask in 0..10 {
                    let mut c = Client::connect(&addr, None).expect("churn connect");
                    if ask % 2 == 0 {
                        let _ = c.stats();
                    }
                }
            });
        }
        // Meanwhile, N sequenced senders stream the whole run.
        for j in 0..n {
            let addr = addr.clone();
            let records = round_robin_slice(&stream, j, n);
            scope.spawn(move || {
                let mut sender = Client::connect(&addr, None).expect("sender session");
                for chunk in records.chunks(512) {
                    sender.push_batch_seq(chunk).expect("sequenced push");
                }
            });
        }
    });
    wait_for_records(&mut control, stream.len() as u64);

    // No thread-per-connection: after 30+ connections, the server is
    // still its one thread (the event loop).
    #[cfg(target_os = "linux")]
    {
        let now = thread_count();
        assert!(
            now <= baseline + 1,
            "server must not spawn per-connection threads: {baseline} -> {now}"
        );
    }

    // The session table drains to just the control session once the
    // resume grace for cleanly-closed senders expires.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = control.stats().expect("stats");
        if stats.active_sessions == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "session table kept {} residents",
            stats.active_sessions
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let run = control.shutdown().expect("shutdown");
    server.join().unwrap().expect("server outcome");
    assert_identical(&run, &served, engine_cfg, &stream);
}
