//! The drivers: every sync runs the two sans-IO collection machines,
//! [`CollectionClientMachine`] and [`CollectionServeMachine`], and these
//! functions move their frames.
//!
//! * [`sync_collection`] (and [`sync_file`], a one-entry collection)
//!   pumps both from the caller's thread over a [`VirtualLink`], which
//!   charges each frame once and hands it straight to the peer; the clock
//!   stays at 0. Each batch's per-file session work runs on one worker
//!   per core (scoped to that batch), its results committed in wire
//!   order; a traced run uses one thread, so its journal is byte-stable.
//!   [`sync_collection_on_link`] is the same pump under a seeded
//!   [`FaultPlan`](msync_protocol::FaultPlan): the link drops, damages,
//!   duplicates, delays or cuts frames, and a virtual clock jumps to the
//!   next retry deadline whenever both machines wait, so recovery runs at
//!   CPU speed and a seed reproduces a run exactly;
//! * [`sync_collection_client`] / [`serve_collection`] pump one machine
//!   each over a [`Transport`] — a TCP socket, or the in-memory
//!   [`Endpoint`](msync_protocol::Endpoint) pair with the two on their
//!   own threads;
//! * the `msync-net` daemon multiplexes many serve machines over
//!   nonblocking sockets.
//!
//! The wire schedule they all carry is documented with its formats, in
//! the engine's codec module.

use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::Builder;

use msync_protocol::{Arrival, ChannelError, Direction, RetryPolicy, Transport, VirtualLink};
use msync_trace::{Clock, Recorder, SystemClock};

use crate::collection::{CollectionOutcome, FileEntry, FileRef};
use crate::config::{ChannelOptions, ProtocolConfig};
use crate::engine::{
    run_in_order, CollectionClientMachine, CollectionServeMachine, CompletedFile, Job, Machine,
    Output, Runner, SyncError,
};
use crate::stats::SyncStats;
use crate::ServeOutcome;

/// Knobs for the pipelined client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineOptions {
    /// Cap on files in flight at once (minimum 1), on top of
    /// [`WINDOW_BUDGET_BYTES`](crate::WINDOW_BUDGET_BYTES). The default is no cap: the byte budget
    /// alone sets the window. Depth 1 serializes the sessions.
    pub depth: usize,
    /// ARQ retry policy for the underlying link.
    pub retry: RetryPolicy,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self { depth: usize::MAX, retry: RetryPolicy::default() }
    }
}

/// Result of a session.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// The client's reconstruction of the server's file (always exact —
    /// residual hash failures trigger the full-file fallback).
    pub reconstructed: Vec<u8>,
    /// Cost and per-level statistics.
    pub stats: SyncStats,
    /// Whether the whole-file fallback fired.
    pub fell_back: bool,
}

/// Options for [`sync_file_with`]. The default is untraced.
#[derive(Debug, Clone, Default)]
pub struct SyncOptions {
    /// Trace recorder; [`Recorder::off()`] (the default) disables
    /// tracing. When enabled, the sync emits session and round span
    /// events and mirrors every byte it charges as a frame event, so
    /// the journal's per-(direction, phase) sums equal the returned
    /// `TrafficStats` exactly, and a run under a deterministic
    /// `ManualClock` writes a byte-identical journal every time.
    pub recorder: Recorder,
}

/// Synchronize one file: the client holds `old`, the server holds `new`;
/// returns the client's (always exact) reconstruction plus cost stats.
pub fn sync_file(old: &[u8], new: &[u8], cfg: &ProtocolConfig) -> Result<SyncOutcome, SyncError> {
    sync_file_with(old, new, cfg, &SyncOptions::default())
}

/// [`sync_file`] under explicit [`SyncOptions`]: a one-entry collection
/// through [`sync_collection`]'s in-process
/// pump. The stats' `traffic` is the whole wire cost, the roster
/// exchange included.
pub fn sync_file_with(
    old: &[u8],
    new: &[u8],
    cfg: &ProtocolConfig,
    opts: &SyncOptions,
) -> Result<SyncOutcome, SyncError> {
    let file = |data| FileRef { name: "", data };
    let (link, rec) = (ChannelOptions::default(), &opts.recorder);
    let mut out = pump_in_process(vec![file(old)], &[file(new)], cfg, &link, rec, runner_for(rec))?;
    let (Some(entry), Some((_, mut stats))) = (out.files.pop(), out.per_file.pop()) else {
        return Err(SyncError::Desync("one-file sync lost its file"));
    };
    stats.traffic = out.traffic;
    Ok(SyncOutcome { reconstructed: entry.data, stats, fell_back: out.fell_back > 0 })
}

/// Drive `m` over `t` until it finishes: transmit queued frames,
/// attribute inbound bytes, and on `Wait` block in `recv_timeout` until
/// a frame arrives or the machine's deadline passes. `clock` supplies
/// the `now_us` timeline the machine's deadlines live on.
///
/// `after_input` is the durability hook: it runs after every frame the
/// machine absorbs (and once more when it finishes), which is exactly
/// when new progress can exist to persist. The CLI's applier drains
/// completed files here without the machine itself touching any I/O —
/// the engine stays effect-pure.
fn pump<M: Machine>(
    t: &mut dyn Transport,
    m: &mut M,
    ctx: &M::Ctx,
    clock: &SystemClock,
    after_input: &mut dyn FnMut(&mut M) -> Result<(), SyncError>,
) -> Result<(), SyncError> {
    loop {
        match m.poll_output(clock.now_micros())? {
            Output::Transmit { frame, split, retransmit } => {
                // The in-memory channel never fails a send; a TCP
                // transport reports a closed or wedged socket here.
                t.send(&frame, split).map_err(|e| match e {
                    ChannelError::Timeout => SyncError::Timeout,
                    ChannelError::Disconnected => SyncError::PeerGone,
                    ChannelError::Corrupt(_) => SyncError::FrameCorrupt,
                })?;
                if retransmit {
                    t.note_retransmits(1);
                }
            }
            Output::Attribute { split } => t.attribute_inbound(split),
            Output::Wait { deadline_us } => {
                let remaining = deadline_us.saturating_sub(clock.now_micros()).max(1);
                match t.recv_timeout(std::time::Duration::from_micros(remaining)) {
                    Ok(bytes) => {
                        m.on_frame(ctx, &bytes, clock.now_micros())?;
                        after_input(m)?;
                    }
                    // A bare expiry needs no machine call: the next
                    // `poll_output` observes the passed deadline.
                    Err(ChannelError::Timeout) => {}
                    Err(ChannelError::Corrupt(_)) => m.on_corrupt_frame(clock.now_micros())?,
                    Err(ChannelError::Disconnected) => m.on_disconnect()?,
                }
            }
            Output::Done => {
                after_input(m)?;
                return Ok(());
            }
        }
    }
}

/// Sync the local `old` collection against a remote server over `t`,
/// with every file that fits [`WINDOW_BUDGET_BYTES`](crate::WINDOW_BUDGET_BYTES) (and
/// [`PipelineOptions::depth`], when set) in flight per flush.
///
/// The returned outcome's `traffic` is the transport's own wire
/// accounting (framing and ARQ retransmits included); `per_file`
/// carries payload-level per-file costs attributed by phase.
pub fn sync_collection_client(
    t: &mut dyn Transport,
    old: &[FileEntry],
    cfg: &ProtocolConfig,
    opts: &PipelineOptions,
) -> Result<CollectionOutcome, SyncError> {
    sync_collection_client_with(t, old, cfg, opts, &mut |_| Ok(()))
}

/// [`sync_collection_client`] with a durability sink: `on_complete` runs
/// for every file the moment it finishes — unchanged files at round 0,
/// as soon as the first reply's group verdict passes — so the CLI can
/// apply it atomically while the session keeps running. A rerun after a
/// crash then finds every applied file unchanged and skips it.
///
/// A sink error aborts the session as [`SyncError::Persist`]: progress
/// that cannot be made durable must not be reported as such.
pub fn sync_collection_client_with(
    t: &mut dyn Transport,
    old: &[FileEntry],
    cfg: &ProtocolConfig,
    opts: &PipelineOptions,
    on_complete: &mut dyn FnMut(&CompletedFile) -> Result<(), String>,
) -> Result<CollectionOutcome, SyncError> {
    let rec = t.recorder();
    let clock = SystemClock::new();
    let mut machine =
        CollectionClientMachine::new(old, cfg, opts.depth, opts.retry, rec, clock.now_micros())?;
    pump(t, &mut machine, &(), &clock, &mut |m| {
        for done in m.drain_completed() {
            on_complete(&done).map_err(SyncError::Persist)?;
        }
        Ok(())
    })?;
    machine.finish(t.stats())
}

/// Serve the `new` collection to one pipelined client over `t`.
///
/// For one-shot callers (tests, the in-process channel run): the files
/// are served as the caller holds them, fingerprinted for the roster,
/// with no cross-session cache. The daemon instead shares one
/// [`CollectionSnapshot`](crate::CollectionSnapshot) across every
/// [`CollectionServeMachine`] it multiplexes, so its cache is warm
/// across sessions.
///
/// A vanished peer after the roster is the normal end of
/// service (the client simply hangs up once every file is done), not
/// an error; protocol violations still surface as [`SyncError`].
pub fn serve_collection(
    t: &mut dyn Transport,
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    retry: RetryPolicy,
) -> Result<ServeOutcome, SyncError> {
    let files: Vec<FileRef<'_>> = new.iter().map(FileRef::from).collect();
    let clock = SystemClock::new();
    let mut machine =
        CollectionServeMachine::<[FileRef<'_>]>::new(cfg, retry, t.recorder(), clock.now_micros())?;
    pump(t, &mut machine, files.as_slice(), &clock, &mut |_| Ok(()))?;
    Ok(machine.outcome(files.len(), t.stats()))
}

/// Synchronize the client's `old` collection to the server's `new` one,
/// in process.
///
/// The outcome's `files`/`per_file` follow sorted-name (roster) order,
/// so the result is a pure function of the two collections' *contents*
/// — callers may present their entries in any order. `traffic` is what
/// the wire would carry: the opener and the roster, one batch frame per
/// direction per round, framing and ARQ headers included.
pub fn sync_collection(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
) -> Result<CollectionOutcome, SyncError> {
    sync_collection_traced(old, new, cfg, &Recorder::off())
}

/// [`sync_collection`] with a trace [`Recorder`] attached: every byte
/// charged to the outcome's `traffic` is mirrored by `frame_send`
/// events, so a journal's per-(direction, phase) byte sums reproduce
/// the returned [`TrafficStats`](msync_protocol::TrafficStats) exactly,
/// and under a deterministic clock two runs write the same journal.
pub fn sync_collection_traced(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    sync_collection_on_link(old, new, cfg, &ChannelOptions::default(), recorder)
}

/// [`sync_collection_traced`] over the link `opts` describes: the
/// client's window and both machines' retry policy come from
/// `opts.pipeline`, and `opts.fault_plan` puts the seeded fault injector
/// on the link and the retry timers to work, on a virtual clock. With
/// no fault plan it costs exactly what [`sync_collection`] does.
///
/// Whenever this returns `Ok`, every file is byte-exact; link failures
/// that outlast the retry budget surface as [`SyncError::Timeout`] /
/// [`SyncError::FrameCorrupt`] / [`SyncError::PeerGone`]. The same
/// `(fault_plan, fault_seed)` gives the same outcome, the same
/// [`TrafficStats`](msync_protocol::TrafficStats) and, under a deterministic clock, the
/// same journal.
pub fn sync_collection_on_link(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    opts: &ChannelOptions,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let new: Vec<FileRef<'_>> = new.iter().map(FileRef::from).collect();
    let old = old.iter().map(FileRef::from).collect();
    pump_in_process(old, &new, cfg, opts, recorder, runner_for(recorder))
}

/// A traced run stays on one thread, so its journal is byte-stable; an
/// untraced one spreads each batch over the cores.
fn runner_for(recorder: &Recorder) -> Runner {
    if recorder.is_enabled() {
        run_in_order
    } else {
        run_on_cores
    }
}

/// Pump both machines over a [`VirtualLink`] built from `opts`, each
/// batch's jobs run by `runner`.
///
/// The client drains first, then the server; every frame either side
/// transmits reaches the peer within the same drain. When both machines
/// wait and neither transmitted, nothing is in flight: on a clean link
/// that is a stall, and on a faulty one the virtual clock jumps to the
/// earlier of their deadlines, where the ARQ retransmits. A clean run
/// never reads the clock past 0.
fn pump_in_process(
    old: Vec<FileRef<'_>>,
    new: &[FileRef<'_>],
    cfg: &ProtocolConfig,
    opts: &ChannelOptions,
    recorder: &Recorder,
    runner: Runner,
) -> Result<CollectionOutcome, SyncError> {
    let (PipelineOptions { depth, retry }, mut now) = (opts.pipeline, 0);
    let mut client = CollectionClientMachine::new(old, cfg, depth, retry, recorder.clone(), now)?;
    let mut server =
        CollectionServeMachine::<[FileRef<'_>]>::new(cfg, retry, recorder.clone(), now)?;
    client.set_runner(runner);
    server.set_runner(runner);
    let mut link = VirtualLink::new(opts.fault_plan.as_ref(), opts.fault_seed, recorder.clone());
    let stalled = SyncError::Desync("in-process sync stalled");
    loop {
        let c2s = Direction::ClientToServer;
        let Some((sent, client_deadline)) =
            hand_over(&mut client, &mut server, new, c2s, &mut link, now)?
        else {
            return client.finish(link.stats());
        };
        if sent == 0 && !link.is_faulty() {
            return Err(stalled);
        }
        match hand_over(&mut server, &mut client, &(), Direction::ServerToClient, &mut link, now)? {
            // A server that gave up has hung up on the client.
            None => client.on_disconnect()?,
            Some((0, server_deadline)) if sent == 0 => {
                let next = client_deadline.min(server_deadline);
                if next <= now {
                    return Err(stalled);
                }
                now = next;
            }
            Some(_) => {}
        }
    }
}

/// The in-process [`Runner`]: one batch's jobs on every core.
fn run_on_cores(jobs: &mut [&mut dyn Job]) {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get));
    run_on_threads(cores, jobs);
}

/// Run `jobs` on up to `threads` threads: the caller's and
/// `min(threads, jobs) - 1` scoped workers, all taking jobs from one
/// shared queue. A job that panics, on any of them, loses only itself:
/// it keeps its error result, which the machine's commit reports as a
/// typed [`SyncError`].
pub(crate) fn run_on_threads(threads: usize, jobs: &mut [&mut dyn Job]) {
    let threads = threads.min(jobs.len());
    if threads < 2 {
        return run_in_order(jobs);
    }
    let queue = Mutex::new(jobs.iter_mut());
    let work = || loop {
        // The lock is never held across a job, so it is never poisoned
        // by one; a poisoned queue is still a valid iterator.
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(job) = next else { return };
        job.run();
    };
    std::thread::scope(|s| {
        // A worker the system cannot start leaves its share to the rest.
        let workers: Vec<_> =
            (1..threads).filter_map(|_| Builder::new().spawn_scoped(s, work).ok()).collect();
        let _lost = std::panic::catch_unwind(AssertUnwindSafe(work));
        for worker in workers {
            // Joined here so a panic stays lost with its job instead of
            // resurfacing from the scope.
            let _lost = worker.join();
        }
    });
}

/// Drain `from`'s effects at `now`, putting each frame it transmits on
/// `link` in direction `dir` and delivering what arrives to `to`.
/// Returns the frames transmitted and `from`'s deadline once it waits,
/// or `None` once it is done.
fn hand_over<A: Machine, B: Machine>(
    from: &mut A,
    to: &mut B,
    ctx: &B::Ctx,
    dir: Direction,
    link: &mut VirtualLink,
    now: u64,
) -> Result<Option<(u64, u64)>, SyncError> {
    let mut frames = 0;
    loop {
        match from.poll_output(now)? {
            Output::Transmit { frame, split, retransmit } => {
                for arrival in link.transmit(dir, split, frame, retransmit).into_iter().flatten() {
                    match arrival {
                        Arrival::Frame(frame) => to.on_frame(ctx, &frame, now)?,
                        Arrival::Corrupt(_) => to.on_corrupt_frame(now)?,
                        Arrival::Cut => {
                            to.on_disconnect()?;
                            from.on_disconnect()?;
                        }
                    }
                }
                frames += 1;
            }
            // Charged on send, as the link charges every frame.
            Output::Attribute { .. } => {}
            Output::Wait { deadline_us } => return Ok(Some((frames, deadline_us))),
            Output::Done => return Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msync_protocol::Endpoint;
    use std::collections::HashMap;
    use std::thread;

    use crate::engine::tests::blob;

    fn entry(name: &str, data: &[u8]) -> FileEntry {
        FileEntry::new(name, data.to_vec())
    }

    /// Both ends over a clean channel at an explicit depth; also returns
    /// what the durability sink saw.
    fn run(
        old: &[FileEntry],
        new: &[FileEntry],
        cfg: &ProtocolConfig,
        depth: usize,
    ) -> (CollectionOutcome, ServeOutcome, Vec<CompletedFile>) {
        let (mut client_ep, mut server_ep) = Endpoint::pair();
        thread::scope(|s| {
            let server =
                s.spawn(|| serve_collection(&mut server_ep, new, cfg, RetryPolicy::default()));
            let opts = PipelineOptions { depth, retry: RetryPolicy::default() };
            let mut completed = Vec::new();
            let out = sync_collection_client_with(&mut client_ep, old, cfg, &opts, &mut |f| {
                completed.push(f.clone());
                Ok(())
            })
            .unwrap();
            drop(client_ep);
            (out, server.join().unwrap().unwrap(), completed)
        })
    }

    fn sorted_names(files: &[FileEntry]) -> Vec<&str> {
        files.iter().map(|f| f.name.as_str()).collect()
    }

    #[test]
    fn pipelined_collection_is_byte_exact() {
        let base = b"the quick brown fox jumps over the lazy dog. ".repeat(120);
        let mut changed = base.clone();
        changed.truncate(3_000);
        changed.extend_from_slice(b"a new ending entirely");
        let old = vec![
            entry("changed.txt", &base),
            entry("deleted.txt", b"goes away"),
            entry("same.txt", &base),
        ];
        let new = vec![
            entry("same.txt", &base),
            entry("changed.txt", &changed),
            entry("fresh.txt", b"brand new file body"),
        ];
        let cfg = ProtocolConfig::default();
        let (out, srv, _) = run(&old, &new, &cfg, 8);

        assert_eq!(sorted_names(&out.files), vec!["changed.txt", "fresh.txt", "same.txt"]);
        let by_name: HashMap<&str, &[u8]> =
            new.iter().map(|f| (f.name.as_str(), f.data.as_slice())).collect();
        for f in &out.files {
            assert_eq!(f.data.as_slice(), by_name[f.name.as_str()], "{}", f.name);
        }
        assert_eq!(out.created, 1);
        assert_eq!(out.deleted, 1);
        assert_eq!(out.unchanged, 1);
        assert_eq!(srv.files, 3);
        // The changed and the created file; the unchanged one settled
        // on the roster.
        assert_eq!(srv.sessions, 2);
        assert!(out.traffic.total_bytes() > 0);
    }

    #[test]
    fn deeper_pipelines_use_fewer_roundtrips() {
        let cfg = ProtocolConfig::default();
        let files: Vec<FileEntry> = (0..24)
            .map(|i| {
                let body = format!("file {i} body ").repeat(200);
                entry(&format!("f{i:03}.txt"), body.as_bytes())
            })
            .collect();
        let old: Vec<FileEntry> = files
            .iter()
            .map(|f| {
                let mut d = f.data.clone();
                d.truncate(d.len() / 2);
                d.extend_from_slice(b"divergent tail material");
                FileEntry::new(f.name.clone(), d)
            })
            .collect();

        let (seq, ..) = run(&old, &files, &cfg, 1);
        let (pipe, ..) = run(&old, &files, &cfg, 16);
        assert_eq!(sorted_names(&seq.files), sorted_names(&pipe.files));
        for (a, b) in seq.files.iter().zip(&pipe.files) {
            assert_eq!(a.data, b.data);
        }
        assert!(
            pipe.traffic.roundtrips < seq.traffic.roundtrips,
            "pipelined {} roundtrips vs sequential {}",
            pipe.traffic.roundtrips,
            seq.traffic.roundtrips
        );
    }

    #[test]
    fn empty_collections_terminate() {
        let cfg = ProtocolConfig::default();
        let old = vec![entry("only-local.txt", b"bytes")];
        let (out, srv, _) = run(&old, &[], &cfg, 4);
        assert!(out.files.is_empty());
        assert_eq!(out.deleted, 1);
        assert_eq!(srv.files, 0);
        assert_eq!(srv.sessions, 0);

        let (out, srv, _) = run(&[], &[], &cfg, 4);
        assert!(out.files.is_empty());
        assert_eq!(srv.sessions, 0);
    }

    #[test]
    fn client_from_nothing_receives_everything() {
        let cfg = ProtocolConfig::default();
        let new = vec![entry("a", b"alpha contents"), entry("b", &b"beta ".repeat(500))];
        let (out, ..) = run(&[], &new, &cfg, 4);
        assert_eq!(out.created, 2);
        assert_eq!(out.files.len(), 2);
        assert_eq!(out.files[0].data, b"alpha contents");
        assert_eq!(out.files[1].data, b"beta ".repeat(500));
    }

    #[test]
    fn unchanged_files_skip_sessions() {
        let big = b"shared content ".repeat(400);
        let changed_old = b"old divergent body ".repeat(100);
        let changed_new = b"new divergent body ".repeat(100);
        let old = vec![entry("done.bin", &big), entry("wip.bin", &changed_old)];
        let new = vec![entry("done.bin", &big), entry("wip.bin", &changed_new)];
        let cfg = ProtocolConfig::default();

        let (out, srv, completed) = run(&old, &new, &cfg, 8);
        assert_eq!(out.unchanged, 1);
        // Only the changed file ran a session, and the unchanged one
        // cost no byte of its own.
        assert_eq!(srv.sessions, 1);
        assert_eq!(out.per_file[0].1.traffic.total_bytes(), 0);
        let by_name: HashMap<&str, &[u8]> =
            new.iter().map(|f| (f.name.as_str(), f.data.as_slice())).collect();
        for f in &out.files {
            assert_eq!(f.data.as_slice(), by_name[f.name.as_str()], "{}", f.name);
        }
        // The sink saw both files; the unchanged one is flagged, round 0.
        assert_eq!(completed.len(), 2);
        let same = completed.iter().find(|f| f.name == "done.bin").unwrap();
        assert!(same.unchanged);
        assert_eq!(same.round, 0);
        assert_eq!(*same.data, big);
        let synced = completed.iter().find(|f| f.name == "wip.bin").unwrap();
        assert!(!synced.unchanged);
        assert!(synced.round > 0);
    }

    /// A collection of one file.
    fn one(data: &[u8]) -> Vec<FileEntry> {
        vec![entry("file", data)]
    }

    /// The pump over a link faulted by the named profile, if any, on the
    /// default retry policy.
    fn over_link(
        old: &[FileEntry],
        new: &[FileEntry],
        depth: usize,
        faults: Option<(&str, u64)>,
    ) -> Result<CollectionOutcome, SyncError> {
        let opts = ChannelOptions {
            pipeline: PipelineOptions { depth, ..PipelineOptions::default() },
            fault_plan: faults.map(|(name, _)| msync_protocol::FaultPlan::profile(name).unwrap()),
            fault_seed: faults.map_or(0, |(_, seed)| seed),
        };
        sync_collection_on_link(old, new, &ProtocolConfig::default(), &opts, &Recorder::off())
    }

    #[test]
    fn channel_run_matches_in_process_driver() {
        let old = blob(30_000, 3);
        let mut new = old.clone();
        new.splice(12_000..12_050, blob(200, 4));
        let cfg = ProtocolConfig::default();
        let a = sync_collection(&one(&old), &one(&new), &cfg).unwrap();
        let (b, ..) = run(&one(&old), &one(&new), &cfg, usize::MAX);
        assert_eq!(a.files, one(&new));
        assert_eq!(b.files, one(&new));
        // Same machines and the same charges: a clean channel between
        // two threads costs exactly what the pump's link charges, frame
        // for frame, and never needs recovery.
        assert_eq!(b.per_file[0].1.levels, a.per_file[0].1.levels);
        assert_eq!(b.traffic, a.traffic);
        assert_eq!(b.traffic.retransmits, 0);
    }

    #[test]
    fn link_run_unchanged_file() {
        let data = one(&blob(10_000, 5));
        let out = over_link(&data, &data, usize::MAX, None).unwrap();
        assert_eq!(out.files, data);
        assert_eq!(out.unchanged, 1);
        assert!(out.traffic.total_bytes() < 96, "got {}", out.traffic.total_bytes());
    }

    #[test]
    fn link_run_empty_to_full() {
        let new = one(&blob(5_000, 6));
        let out = over_link(&one(b""), &new, usize::MAX, None).unwrap();
        assert_eq!(out.files, new);
    }

    #[test]
    fn link_run_survives_lossy_link() {
        let old = blob(24_000, 7);
        let mut new = old.clone();
        new.splice(4_000..4_100, blob(300, 8));
        let out = over_link(&one(&old), &one(&new), usize::MAX, Some(("lossy", 0xFA17))).unwrap();
        assert_eq!(out.files, one(&new));
        assert!(out.traffic.retransmits > 0, "the link lost something");
    }

    #[test]
    fn link_run_corruption_is_healed_or_typed() {
        let new = one(&blob(16_000, 10));
        match over_link(&one(&blob(16_000, 9)), &new, usize::MAX, Some(("corrupt", 99))) {
            Ok(out) => assert_eq!(out.files, new),
            Err(
                SyncError::FrameCorrupt
                | SyncError::Timeout
                | SyncError::PeerGone
                | SyncError::Desync(_),
            ) => {}
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }

    #[test]
    fn link_run_disconnect_surfaces_typed_error() {
        // The profile cuts the link after 20 server frames. A changed
        // file takes at least two (its first reply and its delta), so
        // 24 of them one at a time is at least 48: the cut lands by
        // construction, whatever the default window admits.
        let old: Vec<FileEntry> =
            (0..24).map(|i| entry(&format!("f{i:02}"), &blob(3_000, 100 + i))).collect();
        let new: Vec<FileEntry> = old
            .iter()
            .map(|f| {
                let mut data = f.data.clone();
                data.splice(1_000..1_010, *b"EDIT");
                FileEntry::new(f.name.clone(), data)
            })
            .collect();
        match over_link(&old, &new, 1, Some(("disconnect", 1))) {
            // Severed before the session finished: a typed transport
            // error, never a hang or a panic.
            Err(SyncError::PeerGone) => {}
            Ok(_) => panic!("the session outran the cut"),
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }

    /// Four threads whatever the box has, so the threaded runner really
    /// interleaves jobs in the tests below.
    fn four_threads(jobs: &mut [&mut dyn Job]) {
        run_on_threads(4, jobs);
    }

    #[test]
    fn a_panicking_job_loses_only_itself() {
        struct Step {
            panics: bool,
            ran: bool,
        }
        impl Job for Step {
            fn run(&mut self) -> bool {
                assert!(!self.panics, "this job panics");
                self.ran = true;
                true
            }
        }
        let mut steps: Vec<Step> = (0..9).map(|i| Step { panics: i == 3, ran: false }).collect();
        let mut jobs: Vec<&mut dyn Job> = steps.iter_mut().map(|s| s as &mut dyn Job).collect();
        four_threads(&mut jobs);
        let ran: Vec<bool> = steps.iter().map(|s| s.ran).collect();
        assert_eq!(ran, (0..9).map(|i| i != 3).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_runner_gives_the_outcome_of_the_sequential_one() {
        use msync_corpus::{emacs_like, gcc_like, release_pair, web_collection, web_params};
        let entries = |c: &msync_corpus::Collection| -> Vec<FileEntry> {
            c.files().iter().map(|f| entry(&f.name, &f.data)).collect()
        };
        let pairs = [
            release_pair(&gcc_like(0.015)),
            release_pair(&emacs_like(0.015)),
            web_collection(&web_params(0.003), 1),
        ];
        let configs = [
            ProtocolConfig::default(),
            ProtocolConfig::basic(128),
            ProtocolConfig::restricted(3),
            ProtocolConfig { start_block: 1 << 12, ..ProtocolConfig::default() },
        ];
        for (corpus, pair) in ["gcc", "emacs", "web"].into_iter().zip(&pairs) {
            let (old, new) = pair.pair(0, 1);
            let (old, new) = (entries(old), entries(new));
            let new_refs: Vec<FileRef<'_>> = new.iter().map(FileRef::from).collect();
            for cfg in &configs {
                let run = |runner: Runner| {
                    let old = old.iter().map(FileRef::from).collect();
                    let opts = ChannelOptions::default();
                    pump_in_process(old, &new_refs, cfg, &opts, &Recorder::off(), runner).unwrap()
                };
                let (one, four) = (run(run_in_order), run(four_threads));
                let what = format!("{corpus} under {cfg:?}");
                assert!(one.files.len() > 10, "{what}: a multi-file batch");
                assert_eq!(one.files, new, "{what}");
                assert_eq!(four.files, one.files, "{what}");
                assert_eq!(four.traffic, one.traffic, "{what}");
                assert_eq!(format!("{:?}", four.per_file), format!("{:?}", one.per_file), "{what}");
                let counts =
                    |o: &CollectionOutcome| (o.unchanged, o.created, o.deleted, o.fell_back);
                assert_eq!(counts(&four), counts(&one), "{what}");
            }
        }
    }
}
