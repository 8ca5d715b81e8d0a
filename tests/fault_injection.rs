//! Fault-injection soak: the wire protocol must survive lossy,
//! corrupting, and hanging links.
//!
//! Sweeps every fault class of `msync::protocol::fault` across a seed
//! range, two block-size schedules and two collection shapes, driving
//! the machines the daemon runs (`CollectionClientMachine` against
//! `CollectionServeMachine`) through the in-process pump over a faulty
//! virtual link (`sync_collection_on_link`), under the default retry
//! policy. The link's clock jumps to the next retry deadline whenever
//! both machines wait, so a half-second timeout costs no wall time and
//! a run is a pure function of its `(class, schedule, shape, seed)`.
//! The contract under test:
//!
//! * **no panic, no hang** — every run ends, whatever the link does;
//! * **no silent corruption** — whenever a run reports `Ok`, the
//!   reconstruction is byte-exact;
//! * **typed failure** — when the retry budget is exhausted the error
//!   is `Timeout` / `FrameCorrupt` / `PeerGone` / `Desync`, never a
//!   deadlock or a wrong file.
//!
//! A failure reproduces from the printed `(class, schedule, shape,
//! seed)` tuple. `MSYNC_SOAK_SEEDS=1000` widens the sweep from the
//! default 200 (CI runs 400).
//!
//! The crash-recovery section at the bottom drives a rerun after a crash
//! end to end: seeded disconnects kill live daemon sessions
//! mid-collection, the files completed before the kill are applied (as
//! the CLI's `--write` applies them), and the plain rerun — no state of
//! its own — must end byte-exact while transferring measurably fewer
//! bytes than a from-scratch restart, because the roster finds every
//! applied file unchanged. `MSYNC_BENCH=1` additionally emits the
//! measurement as `BENCH_resume.json` in the repo root.

use msync::core::{
    sync_collection, sync_collection_on_link, AtomicApplier, ChannelOptions, CollectionOutcome,
    FileEntry, PipelineOptions, ProtocolConfig, SyncError,
};
use msync::corpus::Rng;
use msync::net::{sync_remote, sync_remote_with, Daemon, DaemonOptions, RemoteOptions};
use msync::protocol::fault::{FaultInjector, PROFILE_NAMES};
use msync::protocol::{FaultPlan, Phase, RetryPolicy};
use msync::trace::{render_journal, DirTag, EventKind, FaultKind, ManualClock, Recorder};
use std::sync::Arc;
use std::time::Duration;

/// Fault classes under test — every profile the injector ships except
/// the clean one (covered by `zero_fault_rates_change_nothing`).
const CLASSES: &[&str] =
    &["drop", "corrupt", "truncate", "duplicate", "delay", "disconnect", "lossy", "evil"];

fn seed_count() -> u64 {
    std::env::var("MSYNC_SOAK_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(200)
}

/// Short deadlines for the kill-and-rerun runs over real sockets, where
/// a timeout is wall time.
fn soak_retry() -> RetryPolicy {
    RetryPolicy {
        timeout: Duration::from_millis(10),
        max_retries: 8,
        backoff_cap: Duration::from_millis(80),
    }
}

/// Block-size schedules: the paper's default deep recursion and a
/// shallow schedule that reaches small blocks fast (more rounds of
/// small frames vs fewer rounds of large ones).
fn schedules() -> Vec<(&'static str, ProtocolConfig)> {
    vec![
        ("default", ProtocolConfig::default()),
        (
            "shallow",
            ProtocolConfig {
                start_block: 4096,
                min_block_global: 64,
                min_block_cont: 32,
                ..ProtocolConfig::default()
            },
        ),
    ]
}

/// Collection shapes, `(files, pipeline depth)`: a single file — on the
/// wire a one-entry collection — and four files through a two-slot
/// window, so admission and batching run under faults too. The second
/// is also the only one the `disconnect` profile can reach: it cuts the
/// link after 20 server frames, and one window of files is done in 18.
const SHAPES: &[(usize, usize)] = &[(1, 32), WINDOWED];
const WINDOWED: (usize, usize) = (4, 2);

/// Deterministic file pair: ~24 KiB old file plus an edited copy
/// (splices, overwrites, and a tail change) derived from `seed`.
fn file_pair(seed: u64) -> (Vec<u8>, Vec<u8>) {
    sized_pair(seed, 24_576)
}

/// [`file_pair`] with the old file between two thirds of `max_len` and
/// `max_len` bytes long.
fn sized_pair(seed: u64, max_len: usize) -> (Vec<u8>, Vec<u8>) {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let n = rng.gen_range(max_len * 2 / 3..=max_len);
    let old: Vec<u8> = (0..n).map(|_| (rng.next_u64() >> 56) as u8).collect();
    let mut new = old.clone();
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(0..new.len());
        let len = rng.gen_range(1..=512usize).min(new.len() - at);
        match rng.gen_range(0..3u32) {
            0 => {
                // Overwrite in place.
                for b in &mut new[at..at + len] {
                    *b = (rng.next_u64() >> 56) as u8;
                }
            }
            1 => {
                // Insert.
                let patch: Vec<u8> = (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect();
                new.splice(at..at, patch);
            }
            _ => {
                // Delete.
                new.drain(at..at + len);
            }
        }
    }
    (old, new)
}

/// Deterministic collection pair: `files` entries of [`file_pair`] data,
/// old on the client, edited new on the server.
fn collection_pair(files: usize, seed: u64) -> (Vec<FileEntry>, Vec<FileEntry>) {
    let mut old = Vec::new();
    let mut new = Vec::new();
    for i in 0..files {
        let (o, n) = file_pair(seed.wrapping_mul(1009).wrapping_add(i as u64));
        old.push(FileEntry::new(format!("f{i:02}.bin"), o));
        new.push(FileEntry::new(format!("f{i:02}.bin"), n));
    }
    (old, new)
}

fn assert_collection(got: &[FileEntry], want: &[FileEntry], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: file count differs");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.name, w.name, "{label}: name order differs");
        assert_eq!(g.data, w.data, "{label}: `{}` is not byte-exact", g.name);
    }
}

/// The pump over a link injecting `plan` under `seed`: ~24 KiB of
/// [`sized_pair`]s in the given shape, on the default retry policy.
/// Returns the served collection and the outcome.
fn link_run(
    plan: FaultPlan,
    seed: u64,
    cfg: &ProtocolConfig,
    (files, depth): (usize, usize),
    recorder: &Recorder,
) -> (Vec<FileEntry>, Result<CollectionOutcome, SyncError>) {
    let (old, new): (Vec<FileEntry>, Vec<FileEntry>) = (0..files)
        .map(|i| {
            let (o, n) = sized_pair(seed.wrapping_mul(1009).wrapping_add(i as u64), 24_576 / files);
            (FileEntry::new(format!("f{i:02}.bin"), o), FileEntry::new(format!("f{i:02}.bin"), n))
        })
        .unzip();
    let opts = ChannelOptions {
        pipeline: PipelineOptions { depth, ..PipelineOptions::default() },
        fault_plan: Some(plan),
        fault_seed: seed,
    };
    let result = sync_collection_on_link(&old, &new, cfg, &opts, recorder);
    (new, result)
}

/// One soak run of [`link_run`]: every `Ok` is checked byte for byte,
/// every `Err` for being a typed transport error; returns the
/// retransmitted frame count of a successful run.
fn soak_run(
    label: &str,
    plan: FaultPlan,
    seed: u64,
    cfg: &ProtocolConfig,
    shape: (usize, usize),
) -> Option<u64> {
    match link_run(plan, seed, cfg, shape, &Recorder::off()) {
        (new, Ok(out)) => {
            assert_collection(&out.files, &new, label);
            Some(out.traffic.retransmits)
        }
        (
            _,
            Err(
                SyncError::Timeout
                | SyncError::FrameCorrupt
                | SyncError::PeerGone
                | SyncError::Desync(_),
            ),
        ) => None,
        (_, Err(other)) => panic!("{label}: non-transport error {other}"),
    }
}

#[test]
fn soak_every_fault_class_across_seeds() {
    let seeds = seed_count();
    for class in CLASSES {
        let plan = FaultPlan::profile(class).expect("profile exists");
        let mut successes = 0u64;
        let mut runs = 0u64;
        let mut retransmits = 0u64;
        for (schedule, cfg) in schedules() {
            for &shape in SHAPES {
                for seed in 0..seeds {
                    let label =
                        format!("class={class} schedule={schedule} shape={shape:?} seed={seed}");
                    runs += 1;
                    if let Some(rtx) = soak_run(&label, plan, seed, &cfg, shape) {
                        successes += 1;
                        retransmits += rtx;
                    }
                }
            }
        }
        println!("class {class:<10} {successes}/{runs} ok, {retransmits} retransmitted frame(s)");
        // Every class must actually recover on at least some seeds —
        // `disconnect` too: its single-file sessions outrun the cut.
        assert!(successes > 0, "class {class}: no run ever succeeded");
    }
}

/// How many of `seed_count()` default-schedule runs of `class` recovered.
fn recovered(class: &str, shape: (usize, usize)) -> u64 {
    let plan = FaultPlan::profile(class).expect("profile exists");
    let cfg = ProtocolConfig::default();
    (0..seed_count())
        .filter(|&seed| {
            let label = format!("class={class} shape={shape:?} seed={seed}");
            soak_run(&label, plan, seed, &cfg, shape).is_some()
        })
        .count() as u64
}

#[test]
fn recoverable_classes_mostly_recover() {
    // Mild per-class rates must be *absorbed* by retransmission, not
    // merely survived: demand a high success rate so recovery
    // regressions show up even while errors stay typed.
    for class in ["drop", "corrupt", "duplicate", "delay"] {
        for &shape in SHAPES {
            let (ok, runs) = (recovered(class, shape), seed_count());
            assert!(ok * 10 >= runs * 9, "class {class} {shape:?}: only {ok}/{runs} recovered");
        }
    }
}

#[test]
fn disconnect_surfaces_typed_error_not_hang() {
    // The windowed shape runs past the profile's cut point on most
    // seeds, so the cut must be seen to land — and to surface as a
    // typed error (`soak_run` panics on a hang or any other error).
    assert!(
        recovered("disconnect", WINDOWED) < seed_count(),
        "no session was long enough for the disconnect to land"
    );
}

/// A single file: a one-entry collection.
fn one(data: &[u8]) -> Vec<FileEntry> {
    vec![FileEntry::new("file.bin", data)]
}

fn faulty(plan: FaultPlan, fault_seed: u64) -> ChannelOptions {
    ChannelOptions { fault_plan: Some(plan), fault_seed, ..ChannelOptions::default() }
}

#[test]
fn zero_fault_rates_change_nothing() {
    // A FaultPlan with every rate at zero must be bit-transparent:
    // identical bytes, frames, roundtrips and phase attribution to the
    // clean in-process pump, and zero retransmissions.
    let (old, new) = file_pair(7);
    let cfg = ProtocolConfig::default();
    let opts = faulty(FaultPlan::none(), 1234);
    let zeroed = sync_collection_on_link(&one(&old), &one(&new), &cfg, &opts, &Recorder::off())
        .expect("zero-fault run");
    assert_eq!(zeroed.files, one(&new));
    assert_eq!(zeroed.traffic.retransmits, 0);
    let pumped = sync_collection(&one(&old), &one(&new), &cfg).expect("clean run");
    assert_eq!(zeroed.traffic, pumped.traffic, "zero-rate plan perturbed accounting");
}

#[test]
fn every_injected_fault_is_traced_with_matching_direction_and_seq() {
    // The link stamps each fault event with the injector's 1-based
    // per-direction frame sequence, so a mirror pair of injectors built
    // from the same `(rates, seed)` must reproduce the recorded fates
    // exactly. The `lossy` profile (drop + duplicate + delay) is the
    // widest one whose fates consume no extra RNG draws beyond
    // `next_fate()` (corrupt/truncate also draw for the bit flip /
    // prefix length), which keeps the mirror replay a pure function of
    // the frame index.
    let plan = FaultPlan::profile("lossy").expect("profile exists");
    let fault_seed = 0x5EEDu64;
    let (old, new) = file_pair(42);
    let recorder = Recorder::system();
    // Outcome is irrelevant here (Ok or typed failure both leave a
    // valid journal); only the recorded fault events are under test.
    let cfg = ProtocolConfig::default();
    let _ =
        sync_collection_on_link(&one(&old), &one(&new), &cfg, &faulty(plan, fault_seed), &recorder);

    let mut observed: [Vec<(u64, FaultKind)>; 2] = [Vec::new(), Vec::new()];
    for ev in recorder.drain_events() {
        if let EventKind::FaultInjected { dir, kind, seq } = ev.kind {
            let d = match dir {
                DirTag::C2s => 0,
                DirTag::S2c => 1,
            };
            let last = observed[d].last().map_or(0, |&(s, _)| s);
            assert!(seq >= last, "per-direction fault seqs must be non-decreasing");
            observed[d].push((seq, kind));
        }
    }
    assert!(
        observed[0].len() + observed[1].len() > 0,
        "a lossy run must inject (and trace) at least one fault"
    );

    // Mirror the link's per-direction injector seeding and replay.
    let mirrors = [
        FaultInjector::new(plan.c2s, fault_seed),
        FaultInjector::new(plan.s2c, fault_seed ^ 0x9E37_79B9_7F4A_7C15),
    ];
    for (mut mirror, events) in mirrors.into_iter().zip(observed) {
        let max_seq = events.last().map_or(0, |&(s, _)| s);
        let mut expected: Vec<(u64, FaultKind)> = Vec::new();
        for seq in 1..=max_seq {
            let fate = mirror.next_fate();
            // Same order the link emits fault events in.
            for (hit, kind) in [
                (fate.disconnect, FaultKind::Disconnect),
                (fate.drop, FaultKind::Drop),
                (fate.corrupt, FaultKind::Corrupt),
                (fate.truncate, FaultKind::Truncate),
                (fate.duplicate, FaultKind::Duplicate),
                (fate.delay, FaultKind::Delay),
            ] {
                if hit {
                    expected.push((seq, kind));
                }
            }
        }
        assert_eq!(events, expected, "traced fault events must match the mirror injector's fates");
    }
}

#[test]
fn faulty_runs_are_reproducible() {
    // On the virtual clock a run is a pure function of `(plan, seed)`:
    // for every profile, two runs end with the same files or the same
    // typed error, the same traffic to the last roundtrip and
    // retransmission, and the same journal under a deterministic clock.
    // The windowed shape runs long enough for `disconnect` to land.
    let cfg = ProtocolConfig::default();
    for name in PROFILE_NAMES {
        let plan = FaultPlan::profile(name).expect("profile exists");
        for seed in [3, 11] {
            let run = || {
                let recorder = Recorder::with_clock(Arc::new(ManualClock::ticking(0, 1)));
                let (_, result) = link_run(plan, seed, &cfg, WINDOWED, &recorder);
                let result = result.map(|out| (out.files, out.traffic)).map_err(|e| e.to_string());
                (result, render_journal(&recorder.events()))
            };
            let (first, second) = (run(), run());
            assert_eq!(first.0, second.0, "{name} seed {seed}: outcome or traffic differs");
            assert!(first.1 == second.1, "{name} seed {seed}: journal differs");
        }
    }
}

// ---------------------------------------------------------------------
// Crash recovery: kill-and-rerun over a live daemon, torn-temp sweep,
// and the repeated-sync fast path.
// ---------------------------------------------------------------------

/// The seeded kill points for the rerun soak: the connection is cut
/// after this many server-to-client frames, spanning everything from
/// "died during the first file" to "died near the end".
const KILL_POINTS: &[u64] = &[10, 20, 40, 70, 110, 160, 220, 300];

/// One client run against `addr` with the link cut after `cut` s2c
/// frames. Returns the `(name, data)` pairs of the files the durability
/// sink saw synced before the cut, or `None` if the session outran the
/// kill (in which case the outcome is verified byte-exact here).
fn killed_run(
    addr: &str,
    old: &[FileEntry],
    new: &[FileEntry],
    cut: u64,
) -> Option<Vec<(String, Vec<u8>)>> {
    let mut plan = FaultPlan::none();
    plan.s2c.disconnect_after = Some(cut);
    // Depth 1 serializes the per-file sessions, so a mid-collection cut
    // leaves the earlier files completed (and applied) — the partial
    // state a rerun picks up from. At the default depth every file
    // finishes near the end, so almost every cut would land before the
    // first completion.
    let opts = RemoteOptions {
        pipeline: PipelineOptions { depth: 1, retry: soak_retry() },
        fault_wrap: Some((plan, cut)),
        ..RemoteOptions::default()
    };
    let mut completed = Vec::new();
    match sync_remote_with(addr, old, &opts, &mut |f| {
        if !f.unchanged {
            completed.push((f.name.clone(), f.data.to_vec()));
        }
        Ok(())
    }) {
        Ok(got) => {
            assert_collection(&got.outcome.files, new, &format!("clean run (cut {cut})"));
            None
        }
        Err(_) => Some(completed),
    }
}

/// The client's tree after a kill: `old` with every file completed
/// before the kill already applied, as the CLI's `--write` leaves it.
fn applied_tree(old: &[FileEntry], completed: &[(String, Vec<u8>)]) -> Vec<FileEntry> {
    let mut tree = old.to_vec();
    for (name, data) in completed {
        match tree.iter_mut().find(|e| e.name == *name) {
            Some(e) => e.data.clone_from(data),
            None => tree.push(FileEntry::new(name.clone(), data.clone())),
        }
    }
    tree
}

#[test]
fn kill_and_resume_completes_byte_exact_with_fewer_bytes() {
    let (old, new) = collection_pair(6, 99);
    let daemon =
        Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {}).expect("bind");
    let addr = daemon.local_addr().to_string();

    // Restart baseline: the whole collection re-synced from the
    // original client state.
    let restart = sync_remote(&addr, &old, &RemoteOptions::default()).expect("restart baseline");
    assert_collection(&restart.outcome.files, &new, "restart baseline");
    let restart_bytes = restart.socket_sent + restart.socket_received;

    let mut exercised = 0u64;
    for &cut in KILL_POINTS {
        let Some(completed) = killed_run(&addr, &old, &new, cut) else { continue };
        if completed.is_empty() {
            continue; // Cut landed before any file finished: a pure restart.
        }
        exercised += 1;
        let tree = applied_tree(&old, &completed);
        let got = sync_remote(&addr, &tree, &RemoteOptions::default())
            .unwrap_or_else(|e| panic!("cut {cut}: rerun failed: {e}"));
        assert_collection(&got.outcome.files, &new, &format!("rerun (cut {cut})"));
        assert!(
            got.outcome.unchanged >= completed.len(),
            "cut {cut}: the roster must settle every applied file ({} of {})",
            got.outcome.unchanged,
            completed.len()
        );
        let rerun_bytes = got.socket_sent + got.socket_received;
        assert!(
            rerun_bytes < restart_bytes,
            "cut {cut}: rerun after {} applied file(s) moved {rerun_bytes} bytes, \
             restart moved {restart_bytes}",
            completed.len()
        );
        println!(
            "kill-and-rerun: cut after {cut} frames -> {} file(s) applied, \
             {rerun_bytes} rerun bytes vs {restart_bytes} restart bytes",
            completed.len()
        );
    }
    daemon.shutdown();
    assert!(exercised > 0, "no kill point produced a mid-session cut with completed files");
}

#[test]
fn torn_temp_files_are_swept_and_reapplied_atomically() {
    // A crash mid-apply leaves `<final>.msync-tmp` siblings, never a
    // torn final file; the startup sweep removes them and the rerun's
    // apply lands the real content.
    let dir = std::env::temp_dir().join(format!("msync-torn-temp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("sub")).expect("scratch dir");
    std::fs::write(dir.join("a.bin.msync-tmp"), b"torn half-write").expect("plant orphan");
    std::fs::write(dir.join("sub").join("b.bin.msync-tmp"), b"torn nested").expect("plant orphan");
    std::fs::write(dir.join("a.bin"), b"previous generation").expect("previous file");

    let applier = AtomicApplier::new(&dir);
    assert_eq!(applier.clean_orphans().expect("sweep"), 2, "both orphans are swept");
    applier.apply("a.bin", b"rerun final content").expect("apply");
    applier.apply("sub/b.bin", b"nested final").expect("apply");

    assert_eq!(std::fs::read(dir.join("a.bin")).expect("read"), b"rerun final content");
    assert_eq!(std::fs::read(dir.join("sub").join("b.bin")).expect("read"), b"nested final");
    assert!(!dir.join("a.bin.msync-tmp").exists(), "no temp sibling survives a finished apply");
    assert!(!dir.join("sub").join("b.bin.msync-tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_cache_repeat_sync_exchanges_no_map_frames() {
    // Second sync of an already-synchronized collection: the client's
    // own copies are the warm cache, and the roster's fingerprints
    // settle every file — the whole exchange is the opener and the
    // roster, with zero map or delta traffic.
    let (_, new) = collection_pair(4, 7);
    let daemon =
        Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {}).expect("bind");
    let addr = daemon.local_addr().to_string();
    let got = sync_remote(&addr, &new, &RemoteOptions::default()).expect("warm run");
    daemon.shutdown();

    assert_collection(&got.outcome.files, &new, "warm run");
    assert_eq!(got.outcome.unchanged, new.len(), "every file settles on the roster");
    let t = &got.outcome.traffic;
    assert_eq!(
        t.c2s(Phase::Map) + t.s2c(Phase::Map),
        0,
        "a warm repeat sync must exchange no per-file map frames"
    );
    assert_eq!(t.c2s(Phase::Delta) + t.s2c(Phase::Delta), 0, "and no delta frames");
}

#[test]
fn resume_bench_gate() {
    // CI runs this with MSYNC_BENCH=1 and archives BENCH_resume.json;
    // the gates (rerun after a kill < restart, warm re-sync = roster
    // only) are asserted here so a regression fails the suite, not just
    // the artifact.
    if std::env::var_os("MSYNC_BENCH").is_none() {
        eprintln!("resume_bench: set MSYNC_BENCH=1 to run the rerun byte gate");
        return;
    }
    let files = 6usize;
    let (old, new) = collection_pair(files, 99);
    let daemon =
        Daemon::spawn("127.0.0.1:0", new.clone(), DaemonOptions::default(), |_| {}).expect("bind");
    let addr = daemon.local_addr().to_string();

    let restart = sync_remote(&addr, &old, &RemoteOptions::default()).expect("restart baseline");
    let restart_bytes = restart.socket_sent + restart.socket_received;

    // First kill point that lands mid-collection drives the measurement.
    let (cut, completed) = KILL_POINTS
        .iter()
        .find_map(|&cut| {
            killed_run(&addr, &old, &new, cut).filter(|c| !c.is_empty()).map(|c| (cut, c))
        })
        .expect("some kill point must produce a partial session");
    let tree = applied_tree(&old, &completed);
    let rerun = sync_remote(&addr, &tree, &RemoteOptions::default()).expect("rerun");
    assert_collection(&rerun.outcome.files, &new, "rerun");
    let rerun_bytes = rerun.socket_sent + rerun.socket_received;
    assert!(
        rerun_bytes < restart_bytes,
        "a rerun after a kill must move fewer bytes than a restart: {rerun_bytes} vs {restart_bytes}"
    );

    // Warm repeat run: every file unchanged, the roster only.
    let warm = sync_remote(&addr, &new, &RemoteOptions::default()).expect("warm run");
    daemon.shutdown();
    let t = &warm.outcome.traffic;
    let warm_map = t.c2s(Phase::Map) + t.s2c(Phase::Map);
    let warm_delta = t.c2s(Phase::Delta) + t.s2c(Phase::Delta);
    assert_eq!(warm_map + warm_delta, 0, "warm run must be roster traffic only");
    let warm_bytes = warm.socket_sent + warm.socket_received;
    assert!(warm_bytes <= 784, "warm re-sync moved {warm_bytes} B, above the 784 B ceiling");

    let json = format!(
        "{{\n  \"bench\": \"resume\",\n  \"files\": {files},\n  \"disconnect_after_frames\": {cut},\n  \"completed_before_kill\": {},\n  \"restart_bytes\": {restart_bytes},\n  \"rerun_bytes\": {rerun_bytes},\n  \"rerun_savings\": {:.3},\n  \"warm_bytes\": {warm_bytes},\n  \"warm_map_bytes\": {warm_map},\n  \"warm_delta_bytes\": {warm_delta}\n}}\n",
        completed.len(),
        1.0 - rerun_bytes as f64 / restart_bytes.max(1) as f64
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_resume.json");
    std::fs::write(out, &json).expect("write bench json");
    eprintln!("resume_bench: gate passed -> {out}");
}
