//! Sans-IO session engine.
//!
//! The wire protocol of this crate — the stop-and-wait ARQ recovery
//! layer and the pipelined collection schedule above it — is expressed
//! here as pure state machines. A machine never touches a socket, a
//! channel, a thread, or a clock: the caller feeds it received frames
//! ([`Machine::on_frame`]) and drains its effects
//! ([`Machine::poll_output`]), supplying the current time on every call.
//! What to do with those effects is the caller's business:
//!
//! * the blocking drivers in [`crate::pipeline`] pump a machine over a
//!   [`Transport`](msync_protocol::Transport), sleeping in
//!   `recv_timeout` until the machine's deadline;
//! * the `msync-net` daemon multiplexes many machines over nonblocking
//!   sockets on a fixed worker pool, servicing deadlines from a poll
//!   loop.
//!
//! Because machines are deterministic functions of (frames, clock
//! readings), a recorded frame sequence replayed under a
//! [`ManualClock`](msync_trace::ManualClock) reproduces the exact same
//! output frames — the engine unit tests assert this.
//!
//! The module is I/O-free by construction and by lint: the xtask
//! `machine-discipline` rule bans `spawn`, `sleep` and blocking
//! `recv`/`read`-family calls anywhere under `crates/core/src/engine/`.
//!
//! A batch's per-file session work, and the fingerprinting behind the
//! roster, are the one place a machine leaves a choice to its driver:
//! each file's step is an independent job, and the machine hands a
//! batch's jobs to the runner its driver installed before committing
//! their results in wire order. The default runs them one after another
//! on the caller's thread; the in-process pump installs one that spreads
//! them over the cores.
//!
//! One module per protocol role: `codec` holds every byte format above
//! the ARQ frame and documents the wire schedule, `client` the client's
//! per-file sessions and the [`CollectionClientMachine`] that batches
//! them, `server` the same for the [`CollectionServeMachine`], and
//! `arq` the stop-and-wait recovery both embed.

mod arq;
pub(crate) mod client;
pub(crate) mod codec;
pub(crate) mod server;

pub use client::{CollectionClientMachine, CompletedFile};
pub use server::CollectionServeMachine;

use msync_protocol::{FrameBuf, PhaseSplit};

/// Synchronization failure. A session never panics, never hangs, and
/// never silently returns a wrong reconstruction: every failure mode of
/// the link or the peer maps to one of these variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The configuration is invalid.
    Config(String),
    /// The two endpoints fell out of lockstep — a protocol bug, never
    /// expected in a correct build.
    Desync(&'static str),
    /// Retries were exhausted and at least one frame failed its
    /// integrity checks: the link is corrupting traffic faster than the
    /// bounded-retry recovery can repair.
    FrameCorrupt,
    /// The peer disconnected (or the link was cut) mid-session.
    PeerGone,
    /// The retry budget ran out with no frame from the peer at all.
    Timeout,
    /// A durability sink (the CLI's atomic apply) failed.
    /// Protocol state was fine, but progress that cannot be persisted
    /// must not be reported as durable.
    Persist(String),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Desync(what) => write!(f, "protocol desync: {what}"),
            Self::FrameCorrupt => write!(f, "persistent frame corruption exhausted retries"),
            Self::PeerGone => write!(f, "peer disconnected mid-session"),
            Self::Timeout => write!(f, "peer silent; retry budget exhausted"),
            Self::Persist(msg) => write!(f, "cannot persist progress: {msg}"),
        }
    }
}

impl std::error::Error for SyncError {}
/// One file's share of a batch: its session's step over the message the
/// batch carried for it. The jobs of one batch touch disjoint state, so
/// a [`Runner`] may run them in any order and on any thread.
pub(crate) trait Job: Send {
    /// Run the step and keep its result for the machine's commit;
    /// `false` when it failed, after which the batch is lost and its
    /// later jobs need not run.
    fn run(&mut self) -> bool;
}

/// Work that cannot fail, as a [`Job`]: the closure writes its result
/// wherever it borrowed a place for it.
pub(crate) struct FnJob<F>(pub(crate) F);

impl<F: FnMut() + Send> Job for FnJob<F> {
    fn run(&mut self) -> bool {
        (self.0)();
        true
    }
}

/// Runs one batch's jobs, each at most once. A job that never ran (or
/// whose thread panicked) keeps an error result, which the machine's
/// commit reports unless an earlier job in wire order failed first.
pub(crate) type Runner = fn(&mut [&mut dyn Job]);

/// The default [`Runner`]: every job in wire order on the caller's
/// thread, stopping at the first failure — exactly the order in which a
/// recorder sees the sessions' events.
pub(crate) fn run_in_order(jobs: &mut [&mut dyn Job]) {
    for job in jobs {
        if !job.run() {
            return;
        }
    }
}

/// What a job's result reads until the job has run: the commit reports
/// it for a job a runner lost (its thread panicked).
const JOB_LOST: SyncError = SyncError::Desync("a session job never finished");

/// Hand `jobs` to `runner`.
pub(crate) fn run_jobs<J: Job>(runner: Runner, jobs: &mut [J]) {
    let mut jobs: Vec<&mut dyn Job> = jobs.iter_mut().map(|job| job as &mut dyn Job).collect();
    runner(&mut jobs);
}

/// One effect requested by a machine, drained via
/// [`Machine::poll_output`]. Effects must be executed in the order they
/// are returned; `Wait` and `Done` are always the last effect of a
/// drain.
#[derive(Debug)]
pub enum Output {
    /// Put this encoded ARQ frame on the wire, charged across `split`.
    /// `retransmit` marks recovery traffic so the transport's
    /// retransmission counter stays honest.
    Transmit {
        /// Encoded frame (ARQ header + payload), ready to send. A
        /// refcounted [`FrameBuf`]: retransmissions of the same frame
        /// carry shares of one allocation, and transports that queue
        /// output keep shares instead of copies.
        frame: FrameBuf,
        /// How the frame's bytes divide across accounting phases.
        split: PhaseSplit,
        /// Whether this is a retransmission of an earlier frame.
        retransmit: bool,
    },
    /// Attribute the most recently received frame's wire bytes across
    /// `split` (the transport pools inbound bytes until the frame has
    /// been parsed — which only the machine can do).
    Attribute {
        /// Accounting split parsed from the frame.
        split: PhaseSplit,
    },
    /// Nothing to do until a frame arrives or `deadline_us` passes
    /// (on the same clock the caller supplies as `now_us`).
    Wait {
        /// Absolute deadline in microseconds.
        deadline_us: u64,
    },
    /// The machine has finished; it will emit no further effects.
    Done,
}

/// The uniform driving surface of a session machine.
///
/// The contract, identical for every implementation:
///
/// 1. call [`poll_output`](Machine::poll_output) repeatedly, executing
///    effects, until it returns `Wait` or `Done`;
/// 2. on `Wait`, sleep (or poll) until a frame arrives or the deadline
///    passes, then call [`on_frame`](Machine::on_frame) /
///    [`on_corrupt_frame`](Machine::on_corrupt_frame) /
///    [`on_disconnect`](Machine::on_disconnect) as appropriate — a bare
///    deadline expiry needs no call at all, the next `poll_output`
///    observes it;
/// 3. repeat from 1 until `Done` or an error.
///
/// `Ctx` is whatever per-call context the machine needs but must not
/// own — the served [`CollectionSnapshot`](crate::CollectionSnapshot)
/// for the server, or `()` for the client, which borrows its inputs at
/// construction.
pub trait Machine {
    /// Caller-supplied context passed to every `on_frame` call.
    type Ctx: ?Sized;

    /// Feed one received frame payload to the machine. The frame is a
    /// refcounted [`FrameBuf`] so the machine can keep zero-copy views
    /// of it (message parts slice the frame's allocation).
    ///
    /// # Errors
    /// Any [`SyncError`] the frame provokes (desync, retry exhaustion).
    fn on_frame(&mut self, ctx: &Self::Ctx, bytes: &FrameBuf, now_us: u64)
        -> Result<(), SyncError>;

    /// Report a frame that failed the transport's integrity checks.
    ///
    /// # Errors
    /// [`SyncError::Desync`] if the link floods garbage past the cap.
    fn on_corrupt_frame(&mut self, now_us: u64) -> Result<(), SyncError>;

    /// Report that the peer disconnected.
    ///
    /// # Errors
    /// [`SyncError::PeerGone`] on the client side; server machines treat
    /// a hang-up as the normal end of service and return `Ok`.
    fn on_disconnect(&mut self) -> Result<(), SyncError>;

    /// Drain the machine's next effect.
    ///
    /// # Errors
    /// Any [`SyncError`] raised by an expired retry budget.
    fn poll_output(&mut self, now_us: u64) -> Result<Output, SyncError>;
}

/// Both collection machines against each other, frame by frame: the
/// batches, refusals, window and salvage of the collection protocol.
#[cfg(test)]
pub(crate) mod tests {
    use std::sync::Arc;

    use msync_hash::BitWriter;
    use msync_protocol::{
        Direction, FrameBuf, Phase, PhaseSplit, RetryPolicy, TrafficStats, WireMeter,
    };
    use msync_trace::{EventKind, Recorder};

    use super::arq::{encode_arq_frame, parse_frame};
    use super::codec::{decode_batch, encode_batch, Batch, Part, FORCED_WEAK_BYTES};
    use super::{
        run_in_order, CollectionClientMachine, CollectionServeMachine, CompletedFile, Job, Machine,
        Output, Runner, SyncError,
    };
    use crate::collection::FileEntry;
    use crate::config::ProtocolConfig;
    use crate::snapshot::CollectionSnapshot;

    /// Deterministic incompressible bytes.
    pub(crate) fn blob(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    fn edited(data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        let at = out.len() / 2;
        out.splice(at..at + 8, *b"EDITED");
        out
    }

    fn transmissions<M: Machine>(m: &mut M) -> (bool, Vec<(FrameBuf, PhaseSplit)>) {
        let mut frames = Vec::new();
        loop {
            match m.poll_output(0).expect("machine healthy") {
                Output::Transmit { frame, split, .. } => frames.push((frame, split)),
                Output::Attribute { .. } => {}
                Output::Wait { .. } => return (false, frames),
                Output::Done => return (true, frames),
            }
        }
    }

    /// Every frame of a drive, in wire order, with its direction and
    /// the split its sender charged.
    type Frames = Vec<(Direction, FrameBuf, PhaseSplit)>;

    /// Shuttle frames between `client` and a fresh server for `new`
    /// until the client finishes, calling `after_frame` once per frame
    /// the client absorbed (where the blocking driver drains completed
    /// files). Returns how many batches the client sent, and the frames.
    fn drive(
        client: &mut CollectionClientMachine<'_>,
        new: &[FileEntry],
        cfg: &ProtocolConfig,
        mut after_frame: impl FnMut(&mut CollectionClientMachine<'_>),
    ) -> (usize, Frames) {
        let snap = CollectionSnapshot::new(new.to_vec());
        let mut server =
            CollectionServeMachine::new(cfg, RetryPolicy::default(), Recorder::off(), 0).unwrap();
        let mut frames = Frames::new();
        for _ in 0..10_000 {
            let (done, to_server) = transmissions(client);
            for (frame, split) in to_server {
                server.on_frame(&snap, &frame, 0).expect("server accepts frame");
                frames.push((Direction::ClientToServer, frame, split));
            }
            if done {
                // The opener is the first client frame; the rest are batches.
                let sent = frames.iter().filter(|f| f.0 == Direction::ClientToServer).count();
                return (sent - 1, frames);
            }
            for (frame, split) in transmissions(&mut server).1 {
                client.on_frame(&(), &frame, 0).expect("client accepts frame");
                after_frame(client);
                frames.push((Direction::ServerToClient, frame, split));
            }
        }
        panic!("session did not converge");
    }

    fn client<'a>(
        old: &'a [FileEntry],
        cfg: &'a ProtocolConfig,
        rec: Recorder,
    ) -> CollectionClientMachine<'a> {
        CollectionClientMachine::new(old, cfg, usize::MAX, RetryPolicy::default(), rec, 0).unwrap()
    }

    /// A batch's files as decoded: one message per file id.
    type Files = Vec<(usize, Vec<Part>)>;

    /// `frame` with its batch rewritten by `edit`, at the same ARQ
    /// sequence, so the peer machine takes it as the next message.
    fn tampered_batch(frame: &FrameBuf, edit: impl FnOnce(&mut Batch)) -> FrameBuf {
        let arq = parse_frame(frame).expect("well-formed frame");
        let mut batch = decode_batch(&arq.part.payload).expect("a batch frame");
        edit(&mut batch);
        let payload = encode_batch(&batch.files, batch.check.as_ref()).into();
        let part = Part { phase: arq.part.phase, payload };
        encode_arq_frame(Vec::new(), arq.seq, arq.idx, arq.more, &part).into()
    }

    /// `frame` with its batch's files rewritten by `edit`.
    fn tampered(frame: &FrameBuf, edit: fn(&mut Files)) -> FrameBuf {
        tampered_batch(frame, |batch| edit(&mut batch.files))
    }

    /// Entry `i` of `batch` once more, at the end.
    fn repeat_entry(batch: &mut Files, i: usize) {
        let (id, parts) = &batch[i];
        let parts = parts.iter().map(|p| Part { phase: p.phase, payload: p.payload.share() });
        let again = (*id, parts.collect());
        batch.push(again);
    }

    /// Three edited files, and a client and a server for them past the
    /// roster; returns the client's first batch frame.
    fn first_batch<'a>(
        old: &'a [FileEntry],
        cfg: &'a ProtocolConfig,
        snap: &CollectionSnapshot,
    ) -> (CollectionClientMachine<'a>, CollectionServeMachine, FrameBuf) {
        let mut client = client(old, cfg, Recorder::off());
        let mut server =
            CollectionServeMachine::new(cfg, RetryPolicy::default(), Recorder::off(), 0).unwrap();
        for (frame, _) in transmissions(&mut client).1 {
            server.on_frame(snap, &frame, 0).expect("server takes the opener");
        }
        for (frame, _) in transmissions(&mut server).1 {
            client.on_frame(&(), &frame, 0).expect("client takes the roster");
        }
        let mut batch = transmissions(&mut client).1;
        assert_eq!(batch.len(), 1, "one batch frame");
        let (frame, _) = batch.remove(0);
        (client, server, frame)
    }

    fn three_edited_files() -> (Vec<FileEntry>, Vec<FileEntry>) {
        let old: Vec<FileEntry> =
            (0..3).map(|i| FileEntry::new(format!("f{i}"), blob(4_000, 90 + i))).collect();
        let new = old.iter().map(|f| FileEntry::new(f.name.clone(), edited(&f.data))).collect();
        (old, new)
    }

    /// A runner for batches that must be refused before any job runs.
    fn no_job_may_run(_: &mut [&mut dyn Job]) {
        panic!("a job of a refused batch ran");
    }

    #[test]
    fn server_refuses_a_batch_naming_a_file_twice_or_out_of_range() {
        let (old, new) = three_edited_files();
        let cfg = ProtocolConfig::default();
        let snap = CollectionSnapshot::new(new);
        let cases: [(fn(&mut Files), &str); 3] = [
            (|b| repeat_entry(b, 0), "batch names a file twice"),
            (|b| b[1].0 = 3, "batch id out of range"),
            (|b| b[2].0 = 1 << 19, "batch id out of range"),
        ];
        for (edit, refusal) in cases {
            let (_client, mut server, frame) = first_batch(&old, &cfg, &snap);
            server.set_runner(no_job_may_run);
            let got = server.on_frame(&snap, &tampered(&frame, edit), 0);
            assert_eq!(got, Err(SyncError::Desync(refusal)));
            assert_eq!(server.outcome(3, TrafficStats::new()).sessions, 0, "{refusal}");
        }
    }

    /// Four files, two of them unchanged: the client's first batch opens
    /// the two edited ones and carries a group check over the other two.
    fn two_settled_two_edited() -> (Vec<FileEntry>, Vec<FileEntry>) {
        let old: Vec<FileEntry> =
            (0..4).map(|i| FileEntry::new(format!("f{i}"), blob(4_000, 80 + i))).collect();
        let new = old
            .iter()
            .enumerate()
            .map(|(i, f)| match i % 2 {
                0 => f.clone(),
                _ => FileEntry::new(f.name.clone(), edited(&f.data)),
            })
            .collect();
        (old, new)
    }

    /// The check part of `b`, edited by `edit`.
    fn edit_check(b: &mut Batch, edit: impl FnOnce(&mut Vec<u8>)) {
        let check = b.check.as_mut().expect("a check part");
        let mut payload = check.payload.to_vec();
        edit(&mut payload);
        check.payload = payload.into();
    }

    #[test]
    fn server_refuses_a_hostile_group_check() {
        let (old, new) = two_settled_two_edited();
        let cfg = ProtocolConfig::default();
        let snap = CollectionSnapshot::new(new);
        let cases: [(fn(&mut Batch), &str); 4] = [
            // Four files need one bitmap byte; a second one runs past them.
            (|b| edit_check(b, |p| p.insert(0, 0)), "settled bitmap longer than the roster"),
            // So does a bit set in the first byte's padding.
            (|b| edit_check(b, |p| p[0] = 0xFF), "settled bitmap longer than the roster"),
            (|b| edit_check(b, |p| p.truncate(p.len() - 1)), "group check truncated"),
            // File 0 is settled: opening it too is a contradiction.
            (
                |b| {
                    let parts = vec![Part { phase: Phase::Setup, payload: vec![0].into() }];
                    b.files.insert(0, (0, parts));
                },
                "batch opens a provisionally settled file",
            ),
        ];
        for (edit, refusal) in cases {
            let (_client, mut server, frame) = first_batch(&old, &cfg, &snap);
            server.set_runner(no_job_may_run);
            let got = server.on_frame(&snap, &tampered_batch(&frame, edit), 0);
            assert_eq!(got, Err(SyncError::Desync(refusal)));
            assert_eq!(server.outcome(4, TrafficStats::new()).sessions, 0, "{refusal}");
        }

        // Only the first batch may carry a check.
        let (mut client, mut server, frame) = first_batch(&old, &cfg, &snap);
        let check = decode_batch(&parse_frame(&frame).unwrap().part.payload).unwrap().check;
        server.on_frame(&snap, &frame, 0).expect("server takes the first batch");
        for (reply, _) in transmissions(&mut server).1 {
            client.on_frame(&(), &reply, 0).expect("client takes the first reply");
        }
        let (_, mut second) = transmissions(&mut client);
        assert_eq!(second.len(), 1, "the edited files need a second batch");
        let again = tampered_batch(&second.remove(0).0, |b| b.check = check);
        let got = server.on_frame(&snap, &again, 0);
        assert_eq!(got, Err(SyncError::Desync("group check after the first batch")));
    }

    #[test]
    fn client_refuses_a_reply_that_does_not_answer_each_file_in_flight_once() {
        let (old, new) = three_edited_files();
        let cfg = ProtocolConfig::default();
        let snap = CollectionSnapshot::new(new);
        let cases: [(fn(&mut Files), &str); 4] = [
            (|b| repeat_entry(b, 0), "batch reply for a file not in flight"),
            (|b| b[1].0 = 3, "batch reply for a file not in flight"),
            (|b| b[2].0 = 1 << 19, "batch reply for a file not in flight"),
            (|b| drop(b.pop()), "batch reply missing an in-flight file"),
        ];
        for (edit, refusal) in cases {
            let (mut client, mut server, frame) = first_batch(&old, &cfg, &snap);
            server.on_frame(&snap, &frame, 0).expect("server takes the batch");
            let mut reply = transmissions(&mut server).1;
            assert_eq!(reply.len(), 1, "one reply frame");
            client.set_runner(no_job_may_run);
            let got = client.on_frame(&(), &tampered(&reply.remove(0).0, edit), 0);
            assert_eq!(got, Err(SyncError::Desync(refusal)));
            assert!(client.drain_completed().is_empty(), "{refusal}");
        }
    }

    #[test]
    fn of_two_bad_messages_the_lower_id_fails_the_batch_under_every_runner() {
        let (old, new) = three_edited_files();
        let cfg = ProtocolConfig::default();
        let snap = CollectionSnapshot::new(new);
        // An empty request fails on its length, an overlong one on its
        // trailing bytes: files 1 and 2 each get one, in both orders.
        fn overlong(b: &mut Files, i: usize) {
            let mut request = b[i].1[0].payload.to_vec();
            request.push(0);
            b[i].1[0].payload = request.into();
        }
        let cases: [(fn(&mut Files), &str); 2] = [
            (
                |b| {
                    b[1].1[0].payload = Vec::new().into();
                    overlong(b, 2);
                },
                "request len",
            ),
            (
                |b| {
                    overlong(b, 1);
                    b[2].1[0].payload = Vec::new().into();
                },
                "request trailing bytes",
            ),
        ];
        let four_threads: Runner = |jobs| crate::pipeline::run_on_threads(4, jobs);
        for (edit, error) in cases {
            for runner in [run_in_order as Runner, four_threads] {
                let (_client, mut server, frame) = first_batch(&old, &cfg, &snap);
                server.set_runner(runner);
                let got = server.on_frame(&snap, &tampered(&frame, edit), 0);
                assert_eq!(got, Err(SyncError::Desync(error)));
            }
        }
    }

    #[test]
    fn byte_budget_bounds_the_window_and_an_oversized_file_runs_alone() {
        const BUDGET: u64 = 10_000;
        const BIG: usize = 24_000;
        // 51 KB against a 10 KB budget: nine 3 KB files the client has
        // stale copies of, one file larger than the whole budget, and
        // three 4 KB files the client lacks, charged at the length the
        // roster gave them.
        let mut old = Vec::new();
        let mut new = Vec::new();
        for i in 0..9 {
            let data = blob(3_000, i);
            new.push(FileEntry::new(format!("a{i}"), edited(&data)));
            old.push(FileEntry::new(format!("a{i}"), data));
        }
        let big = blob(BIG, 50);
        new.push(FileEntry::new("b-big", edited(&big)));
        old.push(FileEntry::new("b-big", big));
        for i in 0..3 {
            new.push(FileEntry::new(format!("c{i}"), blob(4_000, 60 + i)));
        }
        let cfg = ProtocolConfig::default();

        let rec = Recorder::system();
        let mut bounded = client(&old, &cfg, rec.clone()).with_budget(BUDGET);
        let (batches, _) = drive(&mut bounded, &new, &cfg, |_| {});
        assert_eq!(bounded.finish(TrafficStats::new()).unwrap().files, new);

        let windows: Vec<(u64, u64)> = rec
            .drain_events()
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::WindowAdvance { in_flight, in_flight_bytes, .. } => {
                    Some((in_flight, in_flight_bytes))
                }
                _ => None,
            })
            .collect();
        assert_eq!(windows.len(), batches + 1, "one window report per flush, and the final one");
        // Never more than the budget, except the one file that is
        // larger than the budget — and then that file alone.
        for &(_, bytes) in &windows {
            assert!(bytes <= BUDGET || bytes == BIG as u64, "window held {bytes} B: {windows:?}");
        }
        assert!(windows.contains(&(1, BIG as u64)), "the big file runs alone: {windows:?}");
        // Created files are charged their full 4 KB on admission: two
        // fit, and the third waits outside the window.
        assert!(windows.contains(&(2, 8_000)), "{windows:?}");
        assert_eq!(windows.last(), Some(&(0, 0)), "everything is released at the end");

        // The budget, not the protocol, set that batch count: with room
        // for the whole roster the same sync needs far fewer.
        let mut roomy = client(&old, &cfg, Recorder::off());
        let (roomy_batches, _) = drive(&mut roomy, &new, &cfg, |_| {});
        assert_eq!(roomy.finish(TrafficStats::new()).unwrap().files, new);
        assert!(batches >= 3 * roomy_batches, "{batches} batches vs {roomy_batches}");
    }

    /// A roster reply frame carrying `payload`, as the server's first
    /// message.
    fn roster_frame(payload: Vec<u8>) -> FrameBuf {
        let part = Part { phase: Phase::Setup, payload: payload.into() };
        encode_arq_frame(Vec::new(), 1, 0, false, &part).into()
    }

    /// One hand-written roster entry: `shared` prefix bytes, the
    /// `suffix`, the length and `fp_bytes` of fingerprint.
    fn roster_entry(w: &mut BitWriter, shared: u64, suffix: &str, len: u64, fp_bytes: usize) {
        w.write_varint(shared);
        w.write_varint(suffix.len() as u64);
        w.write_bytes(suffix.as_bytes());
        w.write_varint(len);
        w.write_bytes(&vec![0xAB; fp_bytes]);
    }

    #[test]
    fn hostile_rosters_are_typed_desyncs() {
        /// Shared prefix, suffix, length, and bytes short of the weak
        /// fingerprint width.
        type Entry = (u64, &'static str, u64, usize);
        let huge = msync_compress::MAX_STREAM_LEN + 1;
        let cases: [(u64, &[Entry], &str); 6] = [
            (2, &[(0, "b", 1, 0), (0, "a", 1, 0)], "roster names not strictly increasing"),
            (2, &[(0, "a", 1, 0), (1, "", 1, 0)], "roster names not strictly increasing"),
            (2, &[(0, "a", 1, 0), (2, "b", 1, 0)], "roster prefix longer than the previous name"),
            // One file announced longer than any stream can carry.
            (1, &[(0, "a", huge, 0)], "roster file len beyond the stream limit"),
            (1, &[(0, "a", 1, 1)], "roster fingerprint truncated"),
            ((1 << 20) + 1, &[], "roster count exceeds cap"),
        ];
        let cfg = ProtocolConfig::default();
        let old = vec![FileEntry::new("a", b"local".to_vec())];
        // Every roster here carries three fingerprint bytes a file, the
        // width a 2 000-file one has anyway.
        let weak = 3;
        FORCED_WEAK_BYTES.with(|w| w.set(Some(weak)));
        for (count, entries, refusal) in cases {
            let mut w = BitWriter::new();
            w.write_varint(count);
            for &(shared, suffix, len, short) in entries {
                roster_entry(&mut w, shared, suffix, len, weak - short);
            }
            let mut machine = client(&old, &cfg, Recorder::off());
            transmissions(&mut machine);
            let got = machine.on_frame(&(), &roster_frame(w.into_bytes()), 0);
            assert_eq!(got, Err(SyncError::Desync(refusal)));
            assert!(machine.drain_completed().is_empty(), "{refusal}");
        }

        // Names that each repeat all but two bytes of a 4 096-byte name:
        // about 10 wire bytes an entry, 4 KiB decoded. 2 000 of them would
        // spell 8 MB of names from 22 KB; the decoder stops at the bound.
        let count = 2_000u64;
        let mut w = BitWriter::new();
        w.write_varint(count);
        roster_entry(&mut w, 0, &"!".repeat(4096), 1, weak);
        let suffixes = (b'!'..=b'~').flat_map(|hi| (b'!'..=b'~').map(move |lo| [hi, lo]));
        for suffix in suffixes.skip(1).take(1_999) {
            roster_entry(&mut w, 4094, std::str::from_utf8(&suffix).unwrap(), 1, weak);
        }
        let mut machine = client(&old, &cfg, Recorder::off());
        transmissions(&mut machine);
        let got = machine.on_frame(&(), &roster_frame(w.into_bytes()), 0);
        assert_eq!(got, Err(SyncError::Desync("roster names exceed the payload bound")));
        FORCED_WEAK_BYTES.with(|w| w.set(None));

        // The roster's promises the first reply must keep: the rest of
        // each opened file's fingerprint, and a verdict on exactly the
        // group the client sent.
        fn cut_remainder(b: &mut Batch) {
            let first = &mut b.files[0].1[0];
            first.payload = first.payload.slice(0, 3);
        }
        let cases: [(bool, fn(&mut Batch), &str); 6] = [
            (false, cut_remainder, "first reply lacks the fingerprint remainder"),
            (
                false,
                |b| b.files[1].1[0].payload = Vec::new().into(),
                "first reply lacks the fingerprint remainder",
            ),
            (
                false,
                |b| b.check = Some(Part { phase: Phase::Setup, payload: vec![1].into() }),
                "group verdict without a check",
            ),
            (true, |b| b.check = None, "reply lacks the group verdict"),
            // Two files settled, one remainder salvaged.
            (
                true,
                |b| edit_check(b, |p| *p = [&[0][..], &[7; 14]].concat()),
                "salvage list does not match the settled set",
            ),
            (true, |b| edit_check(b, |p| p.push(0)), "group verdict"),
        ];
        for (grouped, edit, refusal) in cases {
            let (old, new) = if grouped { two_settled_two_edited() } else { three_edited_files() };
            let snap = CollectionSnapshot::new(new);
            let (mut client, mut server, frame) = first_batch(&old, &cfg, &snap);
            server.on_frame(&snap, &frame, 0).expect("server takes the batch");
            let mut reply = transmissions(&mut server).1;
            client.set_runner(no_job_may_run);
            let got = client.on_frame(&(), &tampered_batch(&reply.remove(0).0, edit), 0);
            assert_eq!(got, Err(SyncError::Desync(refusal)));
            assert!(client.drain_completed().is_empty(), "{refusal}");
        }
    }

    #[test]
    fn a_forced_weak_collision_is_salvaged_byte_exact() {
        // Unchanged files, a same-length edit, a longer edit, a created
        // and a deleted file.
        let (flip, grow) = (blob(5_000, 30), blob(6_000, 31));
        let mut flipped = flip.clone();
        flipped[2_500] ^= 0x5A;
        let same: Vec<FileEntry> =
            (0..3).map(|i| FileEntry::new(format!("same{i}"), blob(3_000, 20 + i))).collect();
        let mut old = same.clone();
        old.extend([
            FileEntry::new("flip", flip),
            FileEntry::new("gone", blob(700, 32)),
            FileEntry::new("grow", grow.clone()),
        ]);
        let mut new = same;
        new.extend([
            FileEntry::new("flip", flipped),
            FileEntry::new("grow", [&grow[..], b"and a longer tail"].concat()),
            FileEntry::new("made", blob(2_000, 33)),
        ]);
        new.sort_by(|a, b| a.name.cmp(&b.name));
        let cfg = ProtocolConfig::default();
        let run = |forced: Option<usize>| {
            FORCED_WEAK_BYTES.with(|w| w.set(forced));
            let mut machine = client(&old, &cfg, Recorder::off());
            let (batches, frames) = drive(&mut machine, &new, &cfg, |_| {});
            (batches, frames, machine.finish(TrafficStats::new()).unwrap())
        };
        // The verdict rides on the first reply (the frame after the
        // roster): one byte of `pass`, or `fail` and 16 bytes a file.
        let verdict = |frames: &Frames| {
            let reply = frames.iter().filter(|f| f.0 == Direction::ServerToClient).nth(1);
            let part = parse_frame(&reply.expect("a first reply").1).unwrap().part;
            decode_batch(&part.payload).unwrap().check.map(|c| c.payload.to_vec())
        };

        let (batches, frames, weak) = run(None);
        assert_eq!(weak.files, new);
        assert_eq!(verdict(&frames), Some(vec![1]), "three unchanged files pass");

        // With no weak bytes every local copy of the served length
        // settles, `flip` among them: the group fails, the salvage
        // finds `flip` changed, and it opens one batch late.
        let (forced_batches, frames, forced) = run(Some(0));
        assert_eq!(forced.files, new);
        assert_eq!((forced.unchanged, forced.created, forced.deleted), (3, 1, 1));
        let salvage = verdict(&frames).expect("a verdict");
        assert_eq!((salvage[0], salvage.len()), (0, 1 + 4 * 16), "four files salvaged");
        assert!(forced_batches <= batches + 1, "{forced_batches} batches vs {batches}");
        let flip = forced.per_file.iter().find(|(name, _)| name == "flip").unwrap();
        assert!(flip.1.traffic.total_bytes() > 0, "the salvaged file ran a session");
    }

    #[test]
    fn completed_bytes_and_kept_bytes_are_one_allocation() {
        let (synced, same) = (blob(6_000, 1), blob(5_000, 2));
        let old =
            vec![FileEntry::new("same", same.clone()), FileEntry::new("synced", synced.clone())];
        let new = vec![FileEntry::new("same", same), FileEntry::new("synced", edited(&synced))];
        let cfg = ProtocolConfig::default();

        let mut machine = client(&old, &cfg, Recorder::off());
        let mut completed: Vec<CompletedFile> = Vec::new();
        drive(&mut machine, &new, &cfg, |m| completed.extend(m.drain_completed()));
        completed.sort_by_key(|f| f.file_id);
        assert_eq!(
            completed.iter().map(|f| (f.name.as_str(), f.unchanged)).collect::<Vec<_>>(),
            [("same", true), ("synced", false)]
        );
        let mut kept = Vec::new();
        for f in &completed {
            let data = machine.kept(f.file_id).expect("completed");
            assert!(Arc::ptr_eq(&f.data, data), "{}: the sink's bytes were copied", f.name);
            kept.push(data.as_ptr());
        }
        // With the sink's handles gone, `finish` hands the same
        // allocations out instead of copying them.
        drop(completed);
        let out = machine.finish(TrafficStats::new()).unwrap();
        assert_eq!(out.files, new);
        assert_eq!(out.unchanged, 1);
        assert_eq!(out.files.iter().map(|f| f.data.as_ptr()).collect::<Vec<_>>(), kept);
    }

    #[test]
    fn batch_bytes_go_to_their_parts_phases_and_framing_to_the_largest_share() {
        // Unchanged, edited, created and deleted files in one sync.
        let (same, edit) = (blob(5_000, 70), blob(9_000, 71));
        let old = vec![
            FileEntry::new("edit", edit.clone()),
            FileEntry::new("gone", blob(800, 72)),
            FileEntry::new("same", same.clone()),
        ];
        let new = vec![
            FileEntry::new("edit", edited(&edit)),
            FileEntry::new("new", blob(3_000, 73)),
            FileEntry::new("same", same),
        ];
        let cfg = ProtocolConfig::default();
        let mut machine = client(&old, &cfg, Recorder::off());
        let (_, frames) = drive(&mut machine, &new, &cfg, |_| {});
        let out = machine.finish(TrafficStats::new()).unwrap();
        assert_eq!(out.files, new);

        // Frame by frame: each phase is charged its parts' payload, and
        // the framing goes to one phase holding the largest share.
        let phases = [Phase::Setup, Phase::Map, Phase::Delta, Phase::Resume];
        let both = |t: &TrafficStats, p| t.c2s(p) + t.s2c(p);
        let (mut charged, mut shares, mut checks) =
            (WireMeter::default(), TrafficStats::new(), TrafficStats::new());
        for (dir, frame, split) in &frames {
            let part = parse_frame(frame).expect("well-formed frame").part;
            let mut parts = TrafficStats::new();
            if part.phase == Phase::Map {
                let batch = decode_batch(&part.payload).unwrap();
                for p in batch.files.into_iter().flat_map(|f| f.1) {
                    parts.record(*dir, p.phase, p.payload.len() as u64);
                }
                if let Some(p) = batch.check {
                    parts.record(*dir, p.phase, p.payload.len() as u64);
                    checks.record(*dir, p.phase, p.payload.len() as u64);
                }
            }
            let mut one = WireMeter::default();
            one.sent(*dir, *split, frame.len());
            let one = one.stats();
            let framed: Vec<Phase> =
                phases.into_iter().filter(|&p| both(&one, p) != both(&parts, p)).collect();
            let largest = phases.map(|p| both(&parts, p)).into_iter().max();
            assert_eq!(framed.len(), 1, "framing charged to one phase: {one:?} vs {parts:?}");
            assert_eq!(Some(both(&parts, framed[0])), largest, "framing off the largest share");
            charged.sent(*dir, *split, frame.len());
            shares.merge(&parts);
        }
        // Summed, the parts are exactly the files' own payload bytes and
        // the roster's group check and verdict: a collection's traffic by
        // phase is Σ per_file plus that setup plus framing.
        let mut per_file = TrafficStats::new();
        for (_, stats) in &out.per_file {
            per_file.merge(&stats.traffic);
        }
        assert!(checks.c2s(Phase::Setup) > 16 && checks.s2c(Phase::Setup) == 1, "{checks:?}");
        per_file.merge(&checks);
        assert_eq!(shares, per_file);
        assert!(per_file.s2c(Phase::Delta) > 0);
        // And the in-process pump charges exactly these frames.
        let pumped = crate::pipeline::sync_collection(&old, &new, &cfg).unwrap().traffic;
        assert_eq!(pumped, charged.stats());
    }
}
