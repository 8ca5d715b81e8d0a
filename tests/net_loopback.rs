//! Loopback integration test for the real network transport (ISSUE PR 3,
//! satellite 4): a live `msync serve` daemon on 127.0.0.1, a remote
//! client syncing a multi-file corpus over genuine TCP, and the
//! accounting cross-checks that tie `TrafficStats` to socket reality.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use msync::core::{sync_collection_client, FileEntry, PipelineOptions, ProtocolConfig};
use msync::corpus::{web_collection, WebParams};
use msync::net::handshake::client_hello_as;
use msync::net::{
    admin_reload, sync_remote, Daemon, DaemonOptions, NetError, RegistryBuilder, RemoteOptions,
    RemoteOutcome, TcpTransport,
};
use msync::protocol::{Direction, FrameBuf, Phase, TrafficStats, Transport};
use msync::trace::{DirTag, MetricsSnapshot, PhaseTag};

/// A two-day web corpus: the daemon serves day 1, the client holds
/// day 0. At least 100 files so the pipelined-vs-sequential comparison
/// below has enough in-flight work to show a schedule difference.
fn corpus() -> (Vec<FileEntry>, Vec<FileEntry>) {
    let params = WebParams {
        pages: 120,
        median_size: 1_500,
        daily_change_prob: 0.35,
        rewrite_prob: 0.05,
        seed: 0x10_0b_ac_c5,
    };
    let versioned = web_collection(&params, 1);
    let (day0, day1) = versioned.pair(0, 1);
    let to_entries = |c: &msync::corpus::Collection| {
        c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
    };
    (to_entries(day0), to_entries(day1))
}

fn small_cfg() -> ProtocolConfig {
    // Small blocks keep per-file rounds cheap on a 1.5 KB median corpus.
    ProtocolConfig { start_block: 1024, ..ProtocolConfig::default() }
}

fn run_remote(addr: &str, old: &[FileEntry], depth: usize) -> RemoteOutcome {
    let opts = RemoteOptions {
        cfg: small_cfg(),
        pipeline: PipelineOptions { depth, ..PipelineOptions::default() },
        ..RemoteOptions::default()
    };
    sync_remote(addr, old, &opts).expect("remote sync over loopback")
}

/// Byte-exact reconstruction over a real socket, with the socket's own
/// byte counters agreeing exactly with the protocol's `TrafficStats`.
#[test]
fn loopback_sync_is_byte_exact_and_fully_accounted() {
    let (old, new) = corpus();
    assert!(new.len() >= 100, "corpus too small to be interesting: {}", new.len());

    let sessions = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&sessions);
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), move |r| {
        if r.result.is_ok() {
            seen.fetch_add(1, Ordering::SeqCst);
        }
    })
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    let got = run_remote(&addr, &old, 32);
    daemon.shutdown();

    // Byte-exact: the client's mirror equals the served collection in
    // sorted-name order.
    let mut want: Vec<&FileEntry> = new.iter().collect();
    want.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(got.outcome.files.len(), want.len());
    for (have, want) in got.outcome.files.iter().zip(want) {
        assert_eq!(have.name, want.name);
        assert_eq!(have.data, want.data, "content mismatch for {}", want.name);
    }

    // Accounting: every byte that crossed the socket — handshake
    // included — is attributed somewhere in TrafficStats, and nothing
    // is attributed that never crossed.
    let accounted = got.outcome.traffic.total_bytes();
    let measured = got.socket_sent + got.socket_received;
    assert_eq!(measured, accounted, "socket bytes {measured} != TrafficStats {accounted}");
    assert!(got.socket_sent > 0 && got.socket_received > 0);

    // The daemon saw exactly one successful session.
    assert_eq!(sessions.load(Ordering::SeqCst), 1);
}

/// The pipelined schedule batches many in-flight files into one frame
/// per direction per round, so against the same daemon a deep window
/// must spend strictly fewer round-trip flushes than depth 1.
#[test]
fn pipelined_schedule_beats_sequential_roundtrips() {
    let (old, new) = corpus();
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {})
        .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    let sequential = run_remote(&addr, &old, 1);
    let pipelined = run_remote(&addr, &old, 32);
    daemon.shutdown();

    // Both depths land on the identical mirror...
    assert_eq!(sequential.outcome.files.len(), pipelined.outcome.files.len());
    for (a, b) in sequential.outcome.files.iter().zip(&pipelined.outcome.files) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.data, b.data);
    }

    // ...but the deep window flushes far fewer times.
    let seq = sequential.outcome.traffic.roundtrips;
    let pipe = pipelined.outcome.traffic.roundtrips;
    assert!(pipe < seq, "pipelined roundtrips {pipe} not fewer than sequential {seq}");
}

/// Concurrency soak (ISSUE PR 5): 32 clients sync the same collection
/// against one multiplexed daemon at once. Every client lands on a
/// byte-exact mirror, and the daemon's aggregate metrics grid equals
/// the 32 summed per-session `TrafficStats` cell by cell — the
/// multiplexer's shared-nothing accounting holds under contention.
#[test]
fn soak_32_concurrent_clients_byte_exact_and_accounted() {
    let (old, new) = corpus();
    const CLIENTS: usize = 32;

    let reports: Arc<Mutex<Vec<(TrafficStats, MetricsSnapshot)>>> =
        Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&reports);
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), move |r| {
        let outcome = r.result.as_ref().expect("soak session succeeds");
        sink.lock().expect("report sink").push((outcome.traffic, r.metrics.clone()));
    })
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    let mut want: Vec<FileEntry> = new.clone();
    want.sort_by(|a, b| a.name.cmp(&b.name));

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let old = old.clone();
            std::thread::spawn(move || run_remote(&addr, &old, 16))
        })
        .collect();

    // Introspection under contention: scrape `stats` / `sessions` /
    // `health` continuously while all 32 clients hammer the daemon.
    // The scrapes must never error or deadlock, and — since every
    // admin exchange is itself a reported, metered connection — they
    // land in the same accounting invariant checked below.
    let scrape_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let addr = addr.clone();
        let stop = Arc::clone(&scrape_stop);
        std::thread::spawn(move || {
            let timeout = Duration::from_secs(5);
            let mut admin_count = 0usize;
            let mut live_table = String::new();
            while !stop.load(Ordering::SeqCst) {
                let stats =
                    msync::net::admin_stats(&addr, false, timeout).expect("mid-soak stats scrape");
                assert!(stats.contains("# TYPE msync_bytes_total counter"), "{stats}");
                let table =
                    msync::net::admin_sessions(&addr, timeout).expect("mid-soak sessions scrape");
                if !table.is_empty() {
                    live_table = table;
                }
                let health =
                    msync::net::admin_health(&addr, timeout).expect("mid-soak health scrape");
                assert!(health.contains("live_sessions="), "{health}");
                admin_count += 3;
                std::thread::sleep(Duration::from_millis(2));
            }
            (admin_count, live_table)
        })
    };

    for handle in handles {
        let got = handle.join().expect("client thread");
        assert_eq!(got.outcome.files.len(), want.len());
        for (have, want) in got.outcome.files.iter().zip(&want) {
            assert_eq!(have.name, want.name);
            assert_eq!(have.data, want.data, "soak mirror mismatch for {}", want.name);
        }
    }
    scrape_stop.store(true, Ordering::SeqCst);
    let (admin_count, live_table) = scraper.join().expect("scraper thread");
    assert!(admin_count > 0, "scraper never completed a scrape");
    assert!(
        live_table.lines().any(|l| l.contains("phase=")),
        "scraper never caught a live session: {live_table:?}"
    );
    // Archive one mid-soak `sessions` scrape for CI.
    let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/ARTIFACT_sessions_scrape.txt");
    std::fs::write(artifact, &live_table).expect("write sessions artifact");

    // All reports land — 32 syncs plus every admin exchange (the log
    // callback fires after the aggregate merge, so a full count means
    // a settled aggregate).
    let expected_reports = CLIENTS + admin_count;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while reports.lock().expect("report sink").len() < expected_reports {
        assert!(std::time::Instant::now() < deadline, "daemon reports never arrived");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let aggregate = daemon.metrics();
    daemon.shutdown();

    let reports = reports.lock().expect("report sink");
    assert_eq!(reports.len(), expected_reports);
    let dirs = [(DirTag::C2s, Direction::ClientToServer), (DirTag::S2c, Direction::ServerToClient)];
    let phases = [
        (PhaseTag::Setup, Phase::Setup),
        (PhaseTag::Map, Phase::Map),
        (PhaseTag::Delta, Phase::Delta),
    ];
    for (dtag, dir) in dirs {
        for (ptag, phase) in phases {
            let traffic_sum: u64 = reports
                .iter()
                .map(|(t, _)| match dir {
                    Direction::ClientToServer => t.c2s(phase),
                    Direction::ServerToClient => t.s2c(phase),
                })
                .sum();
            assert_eq!(
                aggregate.dir_phase_bytes(dtag, ptag),
                traffic_sum,
                "soak daemon grid cell ({dtag:?}, {ptag:?}) != summed session TrafficStats"
            );
        }
    }
    let mut merged = MetricsSnapshot::new();
    for (_, m) in reports.iter() {
        merged.merge(m);
    }
    assert_eq!(aggregate, merged, "daemon.metrics() must equal merged session snapshots");
    // Admin exchanges answer `ok` and are metered as successful
    // handshakes alongside the 32 syncs.
    assert_eq!(aggregate.handshakes_ok, (CLIENTS + admin_count) as u64);
    assert_eq!(aggregate.handshakes_failed, 0);
}

/// Admission control: a daemon at capacity answers the hello with a
/// typed `err server at capacity` refusal — the client learns *why* —
/// and the refusal is metered as a failed handshake. Freed capacity
/// admits the next client.
#[test]
fn admission_control_refuses_with_reason_and_frees_capacity() {
    let (old, new) = corpus();

    // Capacity zero: every connection is refused, with the reason.
    let reports = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&reports);
    let opts = DaemonOptions { max_sessions: Some(0), ..DaemonOptions::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), opts, move |r| {
        assert!(r.result.is_err(), "a refused session must report an error");
        seen.fetch_add(1, Ordering::SeqCst);
    })
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();
    let remote_opts = RemoteOptions { cfg: small_cfg(), ..RemoteOptions::default() };
    let err = sync_remote(&addr, &old, &remote_opts);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while reports.load(Ordering::SeqCst) < 1 {
        assert!(std::time::Instant::now() < deadline, "refusal report never arrived");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let metrics = daemon.metrics();
    daemon.shutdown();
    match err {
        Err(msync::net::NetError::Handshake(reason)) => {
            assert!(reason.contains("capacity"), "refusal must name the reason: {reason}");
        }
        other => panic!("expected a typed handshake refusal, got {other:?}"),
    }
    assert_eq!(metrics.handshakes_failed, 1, "the refusal is metered");
    assert_eq!(metrics.handshakes_ok, 0);

    // Capacity one: sequential syncs each get the slot back.
    let finished = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&finished);
    let opts = DaemonOptions { max_sessions: Some(1), ..DaemonOptions::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), opts, move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
    })
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();
    for round in 1..=2 {
        let got = run_remote(&addr, &old, 8);
        assert_eq!(got.outcome.files.len(), new.len(), "round {round} must fully sync");
        // The report is delivered only after the admission slot is
        // released, so waiting for it makes the next round race-free.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while finished.load(Ordering::SeqCst) < round {
            assert!(std::time::Instant::now() < deadline, "session report never arrived");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    let metrics = daemon.metrics();
    daemon.shutdown();
    assert_eq!(metrics.handshakes_ok, 2, "both sequential sessions must be admitted");
}

/// The daemon's live metrics are the exact sum of its per-session
/// recorders: the aggregate byte grid equals the summed per-session
/// `TrafficStats` cell by cell, the handshake counter equals the
/// session count, and `--metrics-out` dumps parseable Prometheus text.
#[test]
fn daemon_metrics_equal_summed_session_stats() {
    let (old, new) = corpus();
    let metrics_path =
        std::env::temp_dir().join(format!("msync-loopback-metrics-{}.prom", std::process::id()));
    let _ = std::fs::remove_file(&metrics_path);

    let reports: Arc<Mutex<Vec<(TrafficStats, MetricsSnapshot)>>> =
        Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&reports);
    let opts = DaemonOptions { metrics_out: Some(metrics_path.clone()), ..Default::default() };
    let daemon = Daemon::spawn("127.0.0.1:0", new, opts, move |r| {
        let outcome = r.result.as_ref().expect("loopback session succeeds");
        sink.lock().expect("report sink").push((outcome.traffic, r.metrics.clone()));
    })
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    // Two sessions, so the aggregate genuinely sums (not just copies).
    run_remote(&addr, &old, 1);
    run_remote(&addr, &old, 32);
    // The client returns before the daemon's session thread finishes
    // its bookkeeping; the log callback fires strictly after the
    // aggregate merge, so two delivered reports mean a settled
    // aggregate.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while reports.lock().expect("report sink").len() < 2 {
        assert!(std::time::Instant::now() < deadline, "daemon reports never arrived");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let aggregate = daemon.metrics();
    daemon.shutdown();

    let reports = reports.lock().expect("report sink");
    assert_eq!(reports.len(), 2, "expected exactly two sessions");

    // Cell-by-cell: aggregate grid == sum of per-session TrafficStats.
    let dirs = [(DirTag::C2s, Direction::ClientToServer), (DirTag::S2c, Direction::ServerToClient)];
    let phases = [
        (PhaseTag::Setup, Phase::Setup),
        (PhaseTag::Map, Phase::Map),
        (PhaseTag::Delta, Phase::Delta),
    ];
    for (dtag, dir) in dirs {
        for (ptag, phase) in phases {
            let traffic_sum: u64 = reports
                .iter()
                .map(|(t, _)| match dir {
                    Direction::ClientToServer => t.c2s(phase),
                    Direction::ServerToClient => t.s2c(phase),
                })
                .sum();
            assert_eq!(
                aggregate.dir_phase_bytes(dtag, ptag),
                traffic_sum,
                "daemon grid cell ({dtag:?}, {ptag:?}) != summed session TrafficStats"
            );
        }
    }
    assert!(aggregate.total_bytes() > 0, "loopback sessions must move bytes");
    // Batch frames are charged to their parts' own phases: every
    // session's deltas show as delta bytes, not as map traffic.
    for (_, m) in reports.iter() {
        assert!(m.dir_phase_bytes(DirTag::S2c, PhaseTag::Delta) > 0, "no delta bytes: {m:?}");
    }

    // The aggregate is also the merge of the per-session snapshots.
    let mut merged = MetricsSnapshot::new();
    for (_, m) in reports.iter() {
        merged.merge(m);
    }
    assert_eq!(aggregate, merged, "daemon.metrics() must equal merged session snapshots");

    // One successful handshake per session, none failed.
    assert_eq!(aggregate.handshakes_ok, 2);
    assert_eq!(aggregate.handshakes_failed, 0);

    // --metrics-out dumped the aggregate as Prometheus text, followed
    // by the per-collection labeled blocks (both sessions bound the
    // default collection).
    let text = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert!(
        text.starts_with(&aggregate.render_prometheus()),
        "metrics text must open with the unlabeled aggregate"
    );
    assert!(text.contains("msync_bytes_total"), "metrics text missing byte series");
    assert!(
        text.contains("collection=\"default\""),
        "metrics text missing the default collection's labeled block"
    );
    let _ = std::fs::remove_file(&metrics_path);
}

/// Sort entries by name, as collection outcomes report them.
fn sorted(entries: &[FileEntry]) -> Vec<FileEntry> {
    let mut v = entries.to_vec();
    v.sort_by(|a, b| a.name.cmp(&b.name));
    v
}

fn assert_mirror(outcome: &msync::core::CollectionOutcome, want: &[FileEntry], label: &str) {
    let want = sorted(want);
    assert_eq!(outcome.files.len(), want.len(), "{label}: file count");
    for (have, want) in outcome.files.iter().zip(&want) {
        assert_eq!(have.name, want.name, "{label}: name order");
        assert_eq!(have.data, want.data, "{label}: content mismatch for {}", want.name);
    }
}

fn run_remote_collection(addr: &str, old: &[FileEntry], collection: &str) -> RemoteOutcome {
    let opts = RemoteOptions {
        cfg: small_cfg(),
        collection: Some(collection.to_string()),
        ..RemoteOptions::default()
    };
    sync_remote(addr, old, &opts).expect("remote sync over loopback")
}

/// The tentpole guarantee (ISSUE PR 8): a registry swap is atomic under
/// live traffic. A client that finished its handshake before the
/// `reload` admin verb ran keeps syncing — and lands byte-exact — on
/// the snapshot it bound, while a client handshaking after the reload
/// lands byte-exact on the new tree. The swap is driven over the wire
/// exactly as `msync` would: `admin_reload` against a registry whose
/// loader re-reads the collection's (here synthetic) source.
#[test]
fn snapshot_swap_is_atomic_under_live_traffic() {
    let (old, v1) = corpus();
    // The "recrawled" tree: most files unchanged, some rewritten, one
    // new — the shape the nightly-recrawl profile models.
    let mut v2: Vec<FileEntry> = v1.clone();
    for f in v2.iter_mut().take(12) {
        let mut data = f.data.clone();
        data.extend_from_slice(b"<!-- recrawled tonight -->");
        *f = FileEntry::new(f.name.clone(), data);
    }
    v2.push(FileEntry::new("www/page_new.html".to_string(), b"<html>new</html>".to_vec()));

    let source: Arc<Mutex<Vec<FileEntry>>> = Arc::new(Mutex::new(Vec::new()));
    let loader_src = Arc::clone(&source);
    let mut builder = RegistryBuilder::new();
    builder.add("crawl", v1.clone(), Some(std::path::PathBuf::from("/virtual/crawl"))).unwrap();
    builder.loader(move |_path| Ok(loader_src.lock().expect("loader source").clone()));
    let daemon = Daemon::spawn_registry(
        "127.0.0.1:0",
        Arc::new(builder.build()),
        DaemonOptions::default(),
        |_| {},
    )
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    // In-flight session: handshake now, sync later. Once the hello
    // reply arrives, the daemon has bound this session to the v1
    // snapshot Arc.
    let stream = std::net::TcpStream::connect(&addr).expect("connect in-flight client");
    let mut t = TcpTransport::client(stream).expect("wrap in-flight client");
    let cfg = client_hello_as(&mut t, &small_cfg(), Some("crawl"), Duration::from_secs(5))
        .expect("in-flight handshake");

    // Swap the collection over the wire while that session is open.
    *source.lock().expect("loader source") = v2.clone();
    let loaded = admin_reload(&addr, "crawl", Duration::from_secs(5)).expect("admin reload");
    assert_eq!(loaded, v2.len(), "reload reports the fresh tree's file count");

    // A fresh client sees the new tree...
    let fresh = run_remote_collection(&addr, &old, "crawl");
    assert_mirror(&fresh.outcome, &v2, "fresh client after swap");

    // ...while the in-flight session finishes byte-exact on the old
    // snapshot it started with.
    let outcome = sync_collection_client(&mut t, &old, &cfg, &PipelineOptions::default())
        .expect("in-flight session completes after the swap");
    assert_mirror(&outcome, &v1, "in-flight client across swap");

    // The old snapshot becomes garbage only once the last session
    // drops it; new handshakes keep getting the new tree.
    let again = run_remote_collection(&addr, &old, "crawl");
    daemon.shutdown();
    assert_mirror(&again.outcome, &v2, "post-swap client");
}

/// Unknown names are a *typed* refusal, and nameless (or v2) clients
/// degrade to the default collection rather than being turned away.
#[test]
fn unknown_collection_is_typed_and_nameless_clients_get_the_default() {
    let (old, new) = corpus();
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {})
        .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    let err = run_remote_try(&addr, &old, Some("ghost"));
    match err {
        Err(NetError::UnknownCollection(name)) => assert_eq!(name, "ghost"),
        other => panic!("expected the typed unknown-collection refusal, got {other:?}"),
    }

    // No name → the default collection.
    let got = run_remote(&addr, &old, 16);
    daemon.shutdown();
    assert_mirror(&got.outcome, &new, "nameless client on the default collection");
}

/// A v6 client fingerprints its files with MD5 and would settle nothing
/// against this daemon: its hello gets the typed refusal, naming the
/// versions the daemon speaks, before any roster crosses.
#[test]
fn a_v6_hello_is_refused_naming_the_spoken_versions() {
    let (_, new) = corpus();
    let (reports, refused) = std::sync::mpsc::channel();
    let daemon = Daemon::spawn("127.0.0.1:0", new, DaemonOptions::default(), move |r| {
        let _ = reports.send(r.result.map(|_| ()).map_err(|e| e.to_string()));
    })
    .expect("bind loopback daemon");
    let stream = std::net::TcpStream::connect(daemon.local_addr()).expect("connect a v6 client");
    let mut t = TcpTransport::client(stream).expect("wrap the v6 client");
    let hello = format!("msync-net 6\n{}", msync::core::params::render(&small_cfg()));
    t.send(&FrameBuf::from(hello.into_bytes()), Phase::Setup.into()).expect("send the v6 hello");
    let reply = t.recv_timeout(Duration::from_secs(5)).expect("the daemon answers the hello");
    assert_eq!(
        std::str::from_utf8(&reply).expect("a text reply"),
        "err unsupported version; this daemon speaks 7..=7"
    );
    let report = refused.recv_timeout(Duration::from_secs(30)).expect("the refusal is reported");
    let metrics = daemon.metrics();
    daemon.shutdown();
    let reason = report.expect_err("the session ends in the refusal");
    assert!(reason.contains("Some(6)") && reason.contains("7..=7"), "{reason}");
    assert_eq!((metrics.handshakes_ok, metrics.handshakes_failed), (0, 1));
}

fn run_remote_try(
    addr: &str,
    old: &[FileEntry],
    collection: Option<&str>,
) -> Result<RemoteOutcome, NetError> {
    let opts = RemoteOptions {
        cfg: small_cfg(),
        collection: collection.map(str::to_owned),
        ..RemoteOptions::default()
    };
    sync_remote(addr, old, &opts)
}

/// Capacity check (ISSUE PR 8 satellite): with two collections served,
/// the per-collection metric grids sum cell-by-cell to the daemon's
/// aggregate — per-collection attribution loses nothing and invents
/// nothing.
#[test]
fn two_collections_metric_grids_sum_to_the_aggregate() {
    let (old, tree_a) = corpus();
    let mut tree_b: Vec<FileEntry> = tree_a.iter().take(40).cloned().collect();
    for f in tree_b.iter_mut() {
        let mut data = f.data.clone();
        data.extend_from_slice(b"tree b variant");
        *f = FileEntry::new(f.name.clone(), data);
    }

    let mut builder = RegistryBuilder::new();
    builder.add("alpha", tree_a.clone(), None).unwrap();
    builder.add("beta", tree_b.clone(), None).unwrap();
    let done = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&done);
    let daemon = Daemon::spawn_registry(
        "127.0.0.1:0",
        Arc::new(builder.build()),
        DaemonOptions::default(),
        move |r| {
            r.result.as_ref().expect("two-collection session succeeds");
            seen.fetch_add(1, Ordering::SeqCst);
        },
    )
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    let a1 = run_remote_collection(&addr, &old, "alpha");
    let a2 = run_remote_collection(&addr, &old, "alpha");
    let b1 = run_remote_collection(&addr, &old, "beta");
    assert_mirror(&a1.outcome, &tree_a, "alpha client 1");
    assert_mirror(&a2.outcome, &tree_a, "alpha client 2");
    assert_mirror(&b1.outcome, &tree_b, "beta client");

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while done.load(Ordering::SeqCst) < 3 {
        assert!(std::time::Instant::now() < deadline, "daemon reports never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    let aggregate = daemon.metrics();
    let by_collection = daemon.metrics_by_collection();
    daemon.shutdown();

    assert_eq!(
        by_collection.keys().collect::<Vec<_>>(),
        vec!["alpha", "beta"],
        "exactly the two served collections have buckets"
    );
    let mut summed = MetricsSnapshot::new();
    for snap in by_collection.values() {
        summed.merge(snap);
    }
    // Every session bound a collection, so the buckets account for the
    // whole aggregate — grid cells, handshakes, session counts, all.
    assert_eq!(aggregate, summed, "per-collection buckets must sum to the aggregate");
    assert_eq!(by_collection["alpha"].handshakes_ok, 2);
    assert_eq!(by_collection["beta"].handshakes_ok, 1);
}

/// The cross-session hash cache: the first session on a collection pays
/// the map-phase hashing (all misses), and a second session syncing the
/// same files pays none of it (all hits) — a hot file is hashed once,
/// not once per client.
#[test]
fn second_session_on_a_hot_collection_hits_the_hash_cache() {
    let (old, new) = corpus();
    let reports: Arc<Mutex<Vec<MetricsSnapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&reports);
    let daemon = Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), move |r| {
        r.result.as_ref().expect("hot-collection session succeeds");
        sink.lock().expect("report sink").push(r.metrics.clone());
    })
    .expect("bind loopback daemon");
    let addr = daemon.local_addr().to_string();

    // Identical syncs: same old mirror, same config, same collection.
    run_remote(&addr, &old, 16);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while reports.lock().expect("report sink").len() < 1 {
        assert!(std::time::Instant::now() < deadline, "first report never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    run_remote(&addr, &old, 16);
    while reports.lock().expect("report sink").len() < 2 {
        assert!(std::time::Instant::now() < deadline, "second report never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    daemon.shutdown();

    let reports = reports.lock().expect("report sink");
    let (first, second) = (&reports[0], &reports[1]);
    assert!(first.hash_cache_misses > 0, "first session must compute map-phase hashes");
    assert_eq!(first.hash_cache_hits, 0, "an empty cache cannot hit");
    assert_eq!(
        second.hash_cache_misses, 0,
        "second identical session must re-hash nothing (misses: {})",
        second.hash_cache_misses
    );
    assert!(second.hash_cache_hits > 0, "second session must be served from the cache");
    assert_eq!(
        second.hash_cache_hit_bytes, first.hash_cache_miss_bytes,
        "the second session's hits cover exactly the bytes the first session hashed"
    );
}
