//! Live introspection plane over loopback: the `sessions` / `health` /
//! `stats` admin verbs scraped against a real daemon while sessions are
//! in flight, and the slow-session watchdog tripped by a deliberately
//! stalled client.
//!
//! The invariants under test:
//! * `sessions` shows a live session in a non-terminal protocol phase
//!   with monotonically increasing byte counters (status derives from
//!   the existing charge points, so it can only grow);
//! * `health` reports occupancy exactly: the admin scrape itself holds
//!   an admission slot, so `active_conns` counts it, while the status
//!   board de-lists it so `live_sessions` does not;
//! * a session parked in one phase past `--slow-session-ms` is flagged
//!   `slow=true` live and lands in `msync_slow_sessions_total` once it
//!   ends;
//! * an idle daemon sleeps: its workers wait without spinning, and a
//!   wait on a quiet socket ends by its bound, never woken by it;
//! * the only worker may park on a quiet session and still serve the
//!   next client, and `shutdown` wakes the acceptor on any bind address,
//!   ends a quiet session and drains a sync in progress;
//! * the codec's head tables are allocated at most twice per worker and
//!   reused for every later encode, as the `msync_codec_*` family shows.
//!
//! (Root integration tests are outside the xtask clock-discipline scan,
//! so `Instant` deadlines are fine here.)

mod support;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use msync::core::{FileEntry, PipelineOptions};
use msync::net::handshake::client_hello;
use msync::net::{
    admin_health, admin_sessions, admin_stats, sync_remote, sync_remote_with, Daemon,
    DaemonOptions, NetError, RemoteOptions, TcpTransport,
};
use support::{corpus, small_cfg};

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

/// The idle-daemon test measures the whole process's CPU, so it runs
/// alone: every other test here holds this lock shared, that one holds
/// it exclusively.
static CPU_QUIET: RwLock<()> = RwLock::new(());

fn share_the_process() -> RwLockReadGuard<'static, ()> {
    CPU_QUIET.read().unwrap_or_else(PoisonError::into_inner)
}

/// Four files of 600 B, all differing between tags: the benchmark's
/// tiny session.
fn tiny_files(tag: &str) -> Vec<FileEntry> {
    (0..4)
        .map(|i| FileEntry::new(format!("f{i}"), format!("{tag} {i} ").repeat(60).into_bytes()))
        .collect()
}

/// Parse a `health` payload into its `key=value` map.
fn parse_health(payload: &str) -> BTreeMap<String, String> {
    payload
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

/// Parse one `sessions` table line into its `key=value` map.
fn parse_session_line(line: &str) -> BTreeMap<String, String> {
    line.split_whitespace()
        .filter_map(|w| w.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect()
}

/// Open a connection, complete the hello, and then go silent: a live
/// session deterministically parked in its first protocol phase.
fn stalled_session(addr: &str) -> std::net::TcpStream {
    let stream = std::net::TcpStream::connect(addr).expect("connect stalled client");
    let mut t = TcpTransport::client(stream.try_clone().expect("clone stream"))
        .expect("transport for stalled client");
    let _cfg = client_hello(&mut t, &small_cfg(), Duration::from_secs(5))
        .expect("stalled client handshake");
    stream
}

/// `sessions` during a live sync: every scrape that catches a session
/// shows a non-terminal phase, and the byte counters for any one
/// session id only ever grow between scrapes.
#[test]
fn sessions_table_tracks_live_syncs_with_monotone_bytes() {
    let _shared = share_the_process();
    let (old, new) = corpus();
    let daemon =
        Daemon::spawn("127.0.0.1:0", new, DaemonOptions::default(), |_| {}).expect("daemon spawn");
    let addr = daemon.local_addr().to_string();

    // A client loops depth-1 syncs (many roundtrips each) until the
    // scraper has seen enough; the scraper polls `sessions` flat out.
    let stop = Arc::new(AtomicBool::new(false));
    let client = {
        let addr = addr.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let opts = RemoteOptions {
                cfg: small_cfg(),
                pipeline: PipelineOptions { depth: 1, ..PipelineOptions::default() },
                ..RemoteOptions::default()
            };
            while !stop.load(Ordering::SeqCst) {
                let out = sync_remote(&addr, &old, &opts).expect("looped sync");
                assert!(!out.outcome.files.is_empty(), "sync did no work");
            }
        })
    };

    // Collect (bytes_in + bytes_out) observations per session id.
    let mut samples: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    let enough = |samples: &BTreeMap<u64, Vec<u64>>| {
        samples.values().any(|v| v.len() >= 3 && v.last() > v.first())
    };
    while !enough(&samples) {
        assert!(Instant::now() < deadline, "never caught a session growing: {samples:?}");
        let table = admin_sessions(&addr, SCRAPE_TIMEOUT).expect("sessions scrape");
        for line in table.lines() {
            let kv = parse_session_line(line);
            let id: u64 = kv["id"].parse().expect("session id");
            let phase = &kv["phase"];
            assert!(
                ["setup", "map", "delta", "resume"].contains(&phase.as_str()),
                "unexpected phase in live table: {line}"
            );
            let bytes: u64 =
                kv["bytes_in"].parse::<u64>().unwrap() + kv["bytes_out"].parse::<u64>().unwrap();
            samples.entry(id).or_default().push(bytes);
        }
    }
    stop.store(true, Ordering::SeqCst);
    client.join().expect("client thread");

    for (id, seen) in &samples {
        assert!(
            seen.windows(2).all(|w| w[0] <= w[1]),
            "session {id} bytes went backwards: {seen:?}"
        );
    }

    // `stats` stays scrapeable mid-daemon, in both renderings.
    let prom = admin_stats(&addr, false, SCRAPE_TIMEOUT).expect("prom stats");
    assert!(prom.contains("# TYPE msync_bytes_total counter"), "{prom}");
    assert!(prom.contains("msync_rate_bytes_per_sec{window=\"10s\"}"), "{prom}");
    let json = admin_stats(&addr, true, SCRAPE_TIMEOUT).expect("json stats");
    assert!(json.trim_start().starts_with('{'), "{json}");
    daemon.shutdown();
}

/// `health` occupancy accounting with a held session: the scrape conn
/// itself occupies a slot (`active_conns`, admission headroom) but is
/// de-listed from the live session table.
#[test]
fn health_reports_occupancy_and_admission_headroom() {
    let _shared = share_the_process();
    let (_, new) = corpus();
    let opts = DaemonOptions { workers: 2, max_sessions: Some(4), ..DaemonOptions::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", new, opts, |_| {}).expect("daemon spawn");
    let addr = daemon.local_addr().to_string();

    let held = stalled_session(&addr);

    // While the stalled session is held: it plus the scrape conn
    // occupy 2 of 4 slots; only the stalled one is a *session*.
    let health = parse_health(&admin_health(&addr, SCRAPE_TIMEOUT).expect("health scrape"));
    assert_eq!(health["workers"], "2");
    assert_eq!(health["active_conns"], "2");
    assert_eq!(health["live_sessions"], "1");
    assert_eq!(health["live_slow_sessions"], "0");
    assert_eq!(health["max_sessions"], "4");
    assert_eq!(health["admission_headroom"], "2");
    assert_eq!(health["watchdog_threshold_us"], "0");
    assert!(health.contains_key("uptime_us"));
    assert!(health.contains_key("trace_events_dropped"));

    let table = admin_sessions(&addr, SCRAPE_TIMEOUT).expect("sessions scrape");
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 1, "exactly the stalled session: {table}");
    let kv = parse_session_line(lines[0]);
    assert_eq!(kv["collection"], "default");
    assert_eq!(kv["phase"], "setup");
    assert_eq!(kv["slow"], "false");

    // Release the session; the daemon notices the hangup and occupancy
    // returns to just the scrape itself.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let health = parse_health(&admin_health(&addr, SCRAPE_TIMEOUT).expect("health scrape"));
        if health["live_sessions"] == "0" && health["active_conns"] == "1" {
            assert_eq!(health["admission_headroom"], "3");
            break;
        }
        assert!(Instant::now() < deadline, "session never drained: {health:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon.shutdown();
}

/// A session parked in one phase past `--slow-session-ms` trips the
/// watchdog: flagged `slow=true` while live, counted in
/// `msync_slow_sessions_total` once it ends.
#[test]
fn watchdog_flags_a_stalled_session() {
    let _shared = share_the_process();
    let (_, new) = corpus();
    let opts =
        DaemonOptions { slow_session: Some(Duration::from_millis(50)), ..DaemonOptions::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", new, opts, |_| {}).expect("daemon spawn");
    let addr = daemon.local_addr().to_string();

    let held = stalled_session(&addr);

    // The watchdog fires on the daemon's own poll loop; scrape until
    // the live table shows the flag.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let table = admin_sessions(&addr, SCRAPE_TIMEOUT).expect("sessions scrape");
        if table
            .lines()
            .any(|l| parse_session_line(l).get("slow").map(String::as_str) == Some("true"))
        {
            break;
        }
        assert!(Instant::now() < deadline, "watchdog never fired: {table}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let health = parse_health(&admin_health(&addr, SCRAPE_TIMEOUT).expect("health scrape"));
    assert_eq!(health["watchdog_threshold_us"], "50000");
    assert_eq!(health["live_slow_sessions"], "1");

    // End the session: the SlowSession event merges into the finished
    // aggregate and surfaces as the Prometheus counter.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.metrics().slow_sessions == 0 {
        assert!(Instant::now() < deadline, "slow session never merged into the aggregate");
        std::thread::sleep(Duration::from_millis(10));
    }
    let prom = admin_stats(&addr, false, SCRAPE_TIMEOUT).expect("prom stats");
    assert!(prom.contains("msync_slow_sessions_total 1"), "{prom}");
    daemon.shutdown();
}

/// An idle daemon sleeps. After one tiny sync, a 2-worker daemon holding
/// no connection makes at most a handful of loop passes in 300 ms: its
/// workers block on their inboxes and the acceptor in `accept`, so
/// nothing polls. Then, with one session held open and quiet, 300 ms of
/// silence must cost the whole process under 30 ms of CPU: one worker
/// parks on the quiet socket, the other blocks on its inbox, neither
/// spins. The waits on the quiet socket end by their bound; at most one
/// wait ends woken, the `after` scrape's own (its worker may park on
/// the scrape connection until the hello lands).
#[test]
fn idle_daemon_sleeps() {
    let _alone = CPU_QUIET.write().unwrap_or_else(PoisonError::into_inner);
    let delivered = Arc::new(AtomicUsize::new(0));
    let opts = DaemonOptions { workers: 2, ..DaemonOptions::default() };
    let daemon = {
        let delivered = Arc::clone(&delivered);
        Daemon::spawn("127.0.0.1:0", tiny_files("new"), opts, move |_| {
            delivered.fetch_add(1, Ordering::SeqCst);
        })
        .expect("daemon spawn")
    };
    let addr = daemon.local_addr().to_string();

    let out = sync_remote(&addr, &tiny_files("old"), &RemoteOptions::default()).expect("tiny sync");
    assert_eq!(out.outcome.files.len(), 4);
    let deadline = Instant::now() + Duration::from_secs(10);
    while delivered.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "the sync's report never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let count = |health: &BTreeMap<String, String>, key: &str| -> u64 {
        health[key].parse().expect("mux counter")
    };
    let scrape = || parse_health(&admin_health(&addr, SCRAPE_TIMEOUT).expect("health scrape"));

    let before = scrape();
    std::thread::sleep(Duration::from_millis(300));
    let after = scrape();
    let passes = count(&after, "mux_passes") - count(&before, "mux_passes");
    assert!(passes <= 20, "a daemon holding no connection made {passes} passes in 300 ms");

    let held = stalled_session(&addr);
    let before = scrape();
    let cpu_before = support::process_cpu_time();
    std::thread::sleep(Duration::from_millis(300));
    let cpu = support::process_cpu_time().saturating_sub(cpu_before);
    let after = scrape();

    assert!(cpu < Duration::from_millis(30), "an idle daemon burned {cpu:?} in 300 ms");
    assert!(
        count(&after, "mux_waits_woken") <= count(&before, "mux_waits_woken") + 1,
        "a wait ended woken with no peer but the scrape speaking: {before:?} -> {after:?}"
    );
    assert!(
        count(&after, "mux_waits_timed_out") > count(&before, "mux_waits_timed_out"),
        "no wait on the quiet socket ran to its bound: {before:?} -> {after:?}"
    );
    drop(held);
    daemon.shutdown();
}

/// The only worker may park: with `--workers 1` holding a quiet session,
/// a tiny sync is still handed over, served and finished within a
/// second. The handoff waits at most one socket wait of the parked
/// worker, and every frame after it is served by a worker holding two
/// connections, which waits on its inbox, not on either socket.
#[test]
fn single_worker_serves_beside_a_quiet_session() {
    let _shared = share_the_process();
    let opts = DaemonOptions { workers: 1, ..DaemonOptions::default() };
    let daemon =
        Daemon::spawn("127.0.0.1:0", tiny_files("new"), opts, |_| {}).expect("daemon spawn");
    let addr = daemon.local_addr().to_string();
    let held = stalled_session(&addr);

    let start = Instant::now();
    let out = sync_remote(&addr, &tiny_files("old"), &RemoteOptions::default()).expect("tiny sync");
    let took = start.elapsed();
    assert_eq!(out.outcome.files.len(), 4);
    assert!(took < Duration::from_secs(1), "a tiny sync took {took:?} beside a quiet session");
    drop(held);
    daemon.shutdown();
}

/// `Daemon::shutdown` wakes the acceptor blocked in `accept` whatever
/// the bind address (an unspecified IP is reached over loopback) and
/// whatever the workers hold: it returns within 2 s idle, and with a
/// quiet session held under the default retry policy, whose budget
/// would hold a drain for seconds. The held session is ended at once,
/// and its report says why.
#[test]
fn shutdown_wakes_the_acceptor() {
    let _shared = share_the_process();
    for listen in ["127.0.0.1:0", "0.0.0.0:0"] {
        for hold in [false, true] {
            let opts = DaemonOptions { workers: 2, ..DaemonOptions::default() };
            let files = vec![FileEntry::new("f", b"served".to_vec())];
            let (report, reports) = std::sync::mpsc::channel();
            let report = std::sync::Mutex::new(report);
            let daemon = Daemon::spawn(listen, files, opts, move |r| {
                let _ = report.lock().unwrap_or_else(PoisonError::into_inner).send(r.result);
            })
            .expect("daemon spawn");
            let port = daemon.local_addr().port();
            let held = hold.then(|| stalled_session(&format!("127.0.0.1:{port}")));
            let (done, finished) = std::sync::mpsc::channel();
            let shutting = std::thread::spawn(move || {
                daemon.shutdown();
                let _ = done.send(());
            });
            assert!(
                finished.recv_timeout(Duration::from_secs(2)).is_ok(),
                "shutdown of a daemon on {listen} (session held: {hold}) took over 2 s"
            );
            shutting.join().expect("shutdown panicked");
            let ended: Vec<_> = reports.try_iter().collect();
            match (hold, ended.as_slice()) {
                (false, []) | (true, [Err(NetError::Shutdown)]) => {}
                _ => panic!("{listen}, session held: {hold}: reports {ended:?}"),
            }
            drop(held);
        }
    }
}

/// A sync in progress is drained, not cut, by a shutdown: the client
/// pauses 20 ms after each file it syncs (far inside the default 500 ms
/// retry timeout), `shutdown` starts after the first such file, and the
/// sync still ends byte-exact with the daemon reporting it done.
#[test]
fn shutdown_drains_a_sync_in_progress() {
    let _shared = share_the_process();
    let (old, new) = corpus();
    let opts = DaemonOptions { workers: 2, ..DaemonOptions::default() };
    let (report, reports) = std::sync::mpsc::channel();
    let report = std::sync::Mutex::new(report);
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), opts, move |r| {
        let _ = report.lock().unwrap_or_else(PoisonError::into_inner).send(r.result.map(|_| ()));
    })
    .expect("daemon spawn");
    let addr = daemon.local_addr().to_string();
    let (started, first_synced) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let opts = RemoteOptions {
            cfg: small_cfg(),
            pipeline: PipelineOptions { depth: 1, ..PipelineOptions::default() },
            ..RemoteOptions::default()
        };
        sync_remote_with(&addr, &old, &opts, &mut |done| {
            if !done.unchanged {
                let _ = started.send(());
                std::thread::sleep(Duration::from_millis(20));
            }
            Ok(())
        })
    });
    first_synced.recv_timeout(Duration::from_secs(30)).expect("the sync synced no file");
    daemon.shutdown();
    let got = client.join().expect("client thread").expect("sync across a shutdown");
    let by_name = |files: &[FileEntry]| -> BTreeMap<String, Vec<u8>> {
        files.iter().map(|f| (f.name.clone(), f.data.to_vec())).collect()
    };
    assert_eq!(by_name(&got.outcome.files), by_name(&new), "sync across a shutdown not exact");
    let ended: Vec<_> = reports.try_iter().collect();
    assert!(matches!(ended.as_slice(), [Ok(())]), "daemon reports {ended:?}");
}

/// A tiny-session burst against a 2-worker daemon: each delta encode
/// takes two head tables, every one of them counted as allocated or
/// reused; at most two per worker thread are ever allocated, and the
/// pools keep at most two spares per worker. Runs alone, since the
/// counters are process-wide.
#[test]
fn codec_scratch_is_reused_across_sessions() {
    let _alone = CPU_QUIET.write().unwrap_or_else(PoisonError::into_inner);
    const WORKERS: u64 = 2;
    const FILES: u64 = 4;
    const SESSIONS: u64 = 40;
    const HEAD_BYTES: u64 = 256 << 10;
    let delivered = Arc::new(AtomicUsize::new(0));
    let opts = DaemonOptions { workers: WORKERS as usize, ..DaemonOptions::default() };
    let daemon = {
        let delivered = Arc::clone(&delivered);
        Daemon::spawn("127.0.0.1:0", tiny_files("new"), opts, move |_| {
            delivered.fetch_add(1, Ordering::SeqCst);
        })
        .expect("daemon spawn")
    };
    let addr = daemon.local_addr().to_string();
    let codec = |name: &str| -> u64 {
        let prom = admin_stats(&addr, false, SCRAPE_TIMEOUT).expect("prom stats");
        prom.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from stats:\n{prom}"))
            .parse()
            .expect("codec metric value")
    };
    let allocated = || codec("msync_codec_heads_allocated_total");
    let reused = || codec("msync_codec_heads_reused_total");

    let (allocated_before, reused_before) = (allocated(), reused());
    for _ in 0..SESSIONS {
        let out =
            sync_remote(&addr, &tiny_files("old"), &RemoteOptions::default()).expect("tiny sync");
        assert_eq!(out.outcome.files.len(), FILES as usize);
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while (delivered.load(Ordering::SeqCst) as u64) < SESSIONS {
        assert!(Instant::now() < deadline, "the burst's reports never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let fresh = allocated() - allocated_before;
    let reuses = reused() - reused_before;
    assert_eq!(fresh + reuses, 2 * FILES * SESSIONS, "one table per index, two per encode");
    assert!(fresh <= 2 * WORKERS, "{fresh} head tables allocated for {WORKERS} workers");
    let retained = codec("msync_codec_scratch_retained_bytes");
    assert!(retained <= 2 * WORKERS * HEAD_BYTES, "{retained} B retained by {WORKERS} workers");
    daemon.shutdown();
}
