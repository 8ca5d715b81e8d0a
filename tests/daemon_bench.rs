//! Daemon concurrency soak gate: 1 000 tiny sessions against one
//! multiplexing daemon must copy strictly fewer frame bytes per session
//! than the pre-`FrameBuf` (owned `Vec<u8>`) frame path did, and the
//! whole soak must fit under a peak-RSS ceiling.
//!
//! Off by default (a 1k-session soak doesn't belong in plain
//! `cargo test`); CI runs it with `MSYNC_BENCH=1` in release mode and
//! archives the measurement as `BENCH_daemon_concurrency.json` in the
//! repo root.
//!
//! This file gates no throughput: a single burst is too noisy to
//! compare against anything. Throughput regressions are the job of the
//! repo benchmark's `tiny_sessions` workload (`sessions_per_s`,
//! `session_p50_ms`, `session_p99_ms` in `BENCHMARK.json`), which runs
//! the same corpus as paired runs of parent and change. `multiplex_sps`
//! is archived here as an observation, next to the last figure the
//! deleted thread-per-session server scored on this burst
//! (`thread_per_session_sps_at_removal`, a frozen literal).
//!
//! Method: `SESSIONS` tiny collection syncs are fired from a fixed
//! `CLIENT_THREADS`-thread client pool at one daemon, once to warm up
//! and once measured. Copied frame bytes come from
//! `msync_protocol::frame_copy_bytes()` (every wire-path memcpy is
//! metered), snapshotted around the measured burst; peak RSS is the
//! kernel's `VmHWM` for the whole test process. (Root integration
//! tests are outside the xtask clock-discipline scan, so `Instant` is
//! fine here.)

mod support;

use std::sync::Arc;
use std::time::Instant;

use msync::core::{FileEntry, PipelineOptions, ProtocolConfig};
use msync::net::{sync_remote, Daemon, DaemonOptions, RemoteOptions};
use support::peak_rss_bytes;

/// Total sessions per measured burst — the 1k soak.
const SESSIONS: usize = 1000;
/// Client pool width: enough to keep the daemon saturated without
/// drowning a small CI box in client-side threads.
const CLIENT_THREADS: usize = 16;

/// Pre-refactor frame bytes copied per multiplexed session, measured by
/// this same bench (same corpus, same counter) on the owned-`Vec<u8>`
/// frame path before the `FrameBuf` refactor. The gate requires the
/// current number to be strictly below this — the ratchet that keeps
/// the zero-copy path zero-copy.
const PRE_REFACTOR_COPIED_PER_SESSION: u64 = 5141;
/// Peak-RSS ceiling for the whole soak process (clients + daemon).
/// Measured 13 MiB on the reference box; the ceiling leaves
/// ~5x headroom for allocator and platform variance while still
/// catching any per-session copy or leak regression at 1k sessions.
const PEAK_RSS_CEILING_BYTES: u64 = 64 * 1024 * 1024;

/// A deliberately tiny collection: per-session protocol work is a few
/// round trips, so session setup/teardown dominates the measurement.
fn tiny_corpus() -> (Vec<FileEntry>, Vec<FileEntry>) {
    let make = |tag: &str| -> Vec<FileEntry> {
        (0..4)
            .map(|i| {
                let body: Vec<u8> = format!("{tag} page {i} ").bytes().cycle().take(600).collect();
                FileEntry::new(format!("page{i}.html"), body)
            })
            .collect()
    };
    (make("old"), make("new"))
}

/// Run one burst of `SESSIONS` syncs against a fresh daemon; returns
/// sessions per second over the burst's wall clock.
fn burst(old: &Arc<Vec<FileEntry>>, new: &[FileEntry]) -> f64 {
    let daemon = Daemon::spawn("127.0.0.1:0", new.to_vec(), DaemonOptions::default(), |_| {})
        .expect("bind daemon");
    let addr = Arc::new(daemon.local_addr().to_string());

    let t0 = Instant::now();
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|worker| {
            let addr = Arc::clone(&addr);
            let old = Arc::clone(old);
            std::thread::spawn(move || {
                let share =
                    SESSIONS / CLIENT_THREADS + usize::from(worker < SESSIONS % CLIENT_THREADS);
                let opts = RemoteOptions {
                    cfg: ProtocolConfig { start_block: 256, ..ProtocolConfig::default() },
                    pipeline: PipelineOptions::default(),
                    ..RemoteOptions::default()
                };
                for _ in 0..share {
                    let got = sync_remote(&addr, &old, &opts).expect("bench session");
                    assert_eq!(got.outcome.files.len(), 4, "bench session must fully sync");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client worker");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    daemon.shutdown();
    SESSIONS as f64 / elapsed.max(1e-9)
}

#[test]
fn multiplexer_sustains_1k_session_soak() {
    if std::env::var_os("MSYNC_BENCH").is_none() {
        eprintln!("daemon_bench: set MSYNC_BENCH=1 to run the 1k-session soak gate");
        return;
    }
    let (old, new) = tiny_corpus();
    let old = Arc::new(old);

    // Warm-up burst so the measured one pays no first-touch costs.
    let _ = burst(&old, &new);

    let copied_before = msync::protocol::frame_copy_bytes();
    let mux_sps = burst(&old, &new);
    let copied_per_session =
        (msync::protocol::frame_copy_bytes() - copied_before) / SESSIONS as u64;
    let rss = peak_rss_bytes();
    eprintln!(
        "daemon_bench: multiplex {mux_sps:.1}/s, {copied_per_session} copied B/session, \
         peak RSS {} MiB",
        rss / (1024 * 1024)
    );
    assert!(
        copied_per_session < PRE_REFACTOR_COPIED_PER_SESSION,
        "frame path copies {copied_per_session} B/session — not below the \
         pre-refactor {PRE_REFACTOR_COPIED_PER_SESSION} B/session ratchet"
    );
    assert!(
        rss < PEAK_RSS_CEILING_BYTES,
        "soak peak RSS {rss} B exceeds the {PEAK_RSS_CEILING_BYTES} B ceiling"
    );
    let json = format!(
        "{{\n  \"bench\": \"daemon_concurrency\",\n  \"sessions\": {SESSIONS},\n  \"client_threads\": {CLIENT_THREADS},\n  \"multiplex_sps\": {mux_sps:.2},\n  \"thread_per_session_sps_at_removal\": 1554.21,\n  \"bytes_copied_per_session\": {copied_per_session},\n  \"bytes_copied_per_session_pre_refactor\": {PRE_REFACTOR_COPIED_PER_SESSION},\n  \"peak_rss_bytes\": {rss},\n  \"peak_rss_ceiling_bytes\": {PEAK_RSS_CEILING_BYTES}\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_daemon_concurrency.json");
    std::fs::write(out, &json).expect("write bench json");
    eprintln!("daemon_bench: gate passed -> {out}");
}
