//! Pipelined collection synchronization: the one wire protocol and its
//! drivers.
//!
//! Every sync runs the same two sans-IO machines,
//! [`CollectionClientMachine`] and [`CollectionServeMachine`]. Three
//! drivers move their frames:
//!
//! * [`sync_collection`] (and [`sync_file`](crate::sync_file), a
//!   one-entry collection) pumps both on the caller's thread, handing
//!   each frame straight to the peer and charging it once to a
//!   [`WireMeter`] — no thread, no clock, byte-stable journals;
//! * [`sync_collection_client`] / [`serve_collection`] pump one machine
//!   each over a [`Transport`] — the in-memory [`Endpoint`] pair
//!   ([`sync_collection_channel`]) or a TCP socket;
//! * the `msync-net` daemon multiplexes many serve machines over
//!   nonblocking sockets.
//!
//! The paper's observation (§1) is that roundtrip latencies need not be
//! paid per file "since many files can be processed simultaneously".
//! The scheduler here realizes that: each ARQ exchange carries **one
//! batch frame per direction** holding the current round message of
//! every file in the window, and the window is a byte budget
//! ([`WINDOW_BUDGET_BYTES`]), not a file count. A collection that fits
//! it runs every file's round *k* in the same exchange and pays the
//! roundtrips of its longest session, however many files it has; a
//! larger one pays that once per budget's worth of content.
//!
//! ## Wire schedule
//!
//! 1. Client sends its sorted file-name roster (one `Setup` message).
//! 2. Server replies with *its* sorted roster; the index of a name in
//!    that listing becomes the file id used by every later batch.
//! 3. Repeat until the client has no in-flight files: client packs one
//!    message per in-flight file into a batch frame; server feeds each
//!    file's message to that file's `ServerSession` and packs the
//!    replies into the mirror batch. Files finish at their own pace;
//!    freed budget admits the next unstarted files in roster order.
//! 4. The client hangs up; the server treats the peer-gone condition
//!    as the normal end of service and lingers briefly for stragglers.
//!
//! Deletions never cross the wire: the client computes them locally as
//! its names minus the server roster. Renames are not detected: a
//! renamed file costs a create plus a delete.
//!
//! Every byte is charged where it crosses: a batch frame's bytes go to
//! the phases of the parts inside it, and its framing to the largest
//! of those shares ([`PhaseSplit`]).

use msync_hash::{BitReader, BitWriter, Fingerprint};
use msync_protocol::{
    frame_wire_size, ChannelError, Direction, Endpoint, FrameBuf, Phase, PhaseSplit, RetryPolicy,
    TrafficStats, Transport, WireMeter,
};
use msync_trace::{Clock, Recorder, ResumeRejectTag, SystemClock};

use crate::collection::{CollectionOutcome, FileEntry, FileRef};
use crate::config::{ChannelOptions, ProtocolConfig};
use crate::engine::arq::{
    encode_arq_frame_into, parse_part_header, part_header, MAX_PARTS_PER_MESSAGE,
};
use crate::engine::{
    CollectionClientMachine, CollectionServeMachine, CompletedFile, Machine, Output,
};
use crate::resume::ResumePlan;
use crate::session::{Part, SyncError};

/// Upper bound on files in one collection roster. A count above this in
/// a decoded roster or batch is treated as a desync, not an allocation
/// request.
const MAX_COLLECTION_FILES: u64 = 1 << 20;

/// Upper bound on a single file name in a roster.
const MAX_NAME_BYTES: u64 = 4096;

/// Content bytes the pipelined client keeps in open file sessions. A
/// file counts its local copy when admitted and the larger of that and
/// the server's length once the setup reply reveals it; files join in
/// roster order while the sum stays within this budget, and a file
/// larger than the whole budget runs alone. It bounds what the window
/// costs — session state, the size of a batch frame, the work lost to a
/// crash — without putting the window between a collection and the
/// roundtrip count of its longest session: 16 MiB is every corpus in
/// EXPERIMENTS.md many times over.
pub const WINDOW_BUDGET_BYTES: u64 = 16 << 20;

/// Knobs for the pipelined client.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Cap on files in flight at once (minimum 1), on top of
    /// [`WINDOW_BUDGET_BYTES`]. The default is no cap: the byte budget
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

/// What the server side saw while serving one connection.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Files in the served collection (the roster length).
    pub files: usize,
    /// Files the client actually engaged with a session.
    pub sessions: usize,
    /// Wire traffic as measured by the server's transport.
    pub traffic: TrafficStats,
}

pub(crate) fn encode_roster(names: &[&str]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_varint(names.len() as u64);
    for name in names {
        w.write_varint(name.len() as u64);
        w.write_bytes(name.as_bytes());
    }
    w.into_bytes()
}

pub(crate) fn decode_roster(payload: &[u8]) -> Result<Vec<String>, SyncError> {
    let mut r = BitReader::new(payload);
    let count = r.read_varint().map_err(|_| SyncError::Desync("roster count"))?;
    if count > MAX_COLLECTION_FILES {
        return Err(SyncError::Desync("roster count exceeds cap"));
    }
    let count = usize::try_from(count).map_err(|_| SyncError::Desync("roster count"))?;
    let mut names = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = r.read_varint().map_err(|_| SyncError::Desync("roster name len"))?;
        if len > MAX_NAME_BYTES {
            return Err(SyncError::Desync("roster name too long"));
        }
        let len = usize::try_from(len).map_err(|_| SyncError::Desync("roster name len"))?;
        let bytes = r.read_bytes(len).map_err(|_| SyncError::Desync("roster name truncated"))?;
        let name =
            String::from_utf8(bytes).map_err(|_| SyncError::Desync("roster name not UTF-8"))?;
        names.push(name);
    }
    Ok(names)
}

/// Pack one round message per in-flight file into a single frame
/// payload: `varint n, then per file (varint id, varint n_parts, per
/// part: 1 phase byte, varint len, payload bytes)`.
pub(crate) fn encode_batch(entries: &[(usize, Vec<Part>)]) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_varint(entries.len() as u64);
    for (id, parts) in entries {
        w.write_varint(*id as u64);
        w.write_varint(parts.len() as u64);
        for part in parts {
            w.write_bits(u64::from(part_header(part.phase, false)), 8);
            w.write_varint(part.payload.len() as u64);
            w.write_bytes(&part.payload);
        }
    }
    w.into_bytes()
}

/// Decode a batch into its files' messages; every part is a zero-copy
/// view of `payload`.
pub(crate) fn decode_batch(payload: &FrameBuf) -> Result<Vec<(usize, Vec<Part>)>, SyncError> {
    let mut r = BitReader::new(payload);
    let count = r.read_varint().map_err(|_| SyncError::Desync("batch count"))?;
    if count > MAX_COLLECTION_FILES {
        return Err(SyncError::Desync("batch count exceeds cap"));
    }
    let count = usize::try_from(count).map_err(|_| SyncError::Desync("batch count"))?;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let id = r.read_varint().map_err(|_| SyncError::Desync("batch file id"))?;
        if id >= MAX_COLLECTION_FILES {
            return Err(SyncError::Desync("batch file id exceeds cap"));
        }
        let id = usize::try_from(id).map_err(|_| SyncError::Desync("batch file id"))?;
        let n_parts = r.read_varint().map_err(|_| SyncError::Desync("batch part count"))?;
        if n_parts == 0 || n_parts > MAX_PARTS_PER_MESSAGE as u64 {
            return Err(SyncError::Desync("batch part count out of range"));
        }
        let n_parts = usize::try_from(n_parts).map_err(|_| SyncError::Desync("batch parts"))?;
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let header = r.read_bits(8).map_err(|_| SyncError::Desync("batch part header"))?;
            let header = u8::try_from(header).map_err(|_| SyncError::Desync("batch header"))?;
            let (phase, _more) =
                parse_part_header(header).ok_or(SyncError::Desync("batch phase tag"))?;
            let len = r.read_varint().map_err(|_| SyncError::Desync("batch part len"))?;
            let len = usize::try_from(len).map_err(|_| SyncError::Desync("batch part len"))?;
            // Every field before a payload is whole bytes: it starts aligned.
            let start = payload.len() - r.remaining_bits() / 8;
            r.skip_bytes(len).map_err(|_| SyncError::Desync("batch part truncated"))?;
            parts.push(Part { phase, payload: payload.slice(start, start + len) });
        }
        out.push((id, parts));
    }
    Ok(out)
}

/// How a batch frame divides across its parts' phases; the batch's own
/// headers are framing. A batch that does not parse is all map phase.
pub(crate) fn batch_split(payload: &FrameBuf) -> PhaseSplit {
    let mut split = PhaseSplit::from(Phase::Map);
    for part in decode_batch(payload).unwrap_or_default().iter().flat_map(|(_, parts)| parts) {
        split.add(part.phase, part.payload.len() as u64);
    }
    split
}

/// Wire bytes of one roster frame listing `names`: what each side of a
/// collection sync pays to say which files it holds. The paper harness
/// charges the per-file baselines the same two listings.
pub fn roster_frame_bytes(names: &[&str]) -> u64 {
    let mut sorted = names.to_vec();
    sorted.sort_unstable();
    let part = Part { phase: Phase::Setup, payload: encode_roster(&sorted).into() };
    let mut frame = Vec::new();
    encode_arq_frame_into(&mut frame, 0, 0, false, &part);
    frame_wire_size(frame.len())
}

/// The server's verdict on a resume offer, as it crosses the wire in
/// the `Phase::Resume` part of the roster reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ResumeVerdict {
    /// Per-offer-entry confirmation flags, in offer order. A declined
    /// entry (stale digest, unknown name) simply syncs normally.
    Accept(Vec<bool>),
    /// The offer as a whole is unusable; the client falls back to a
    /// full sync.
    Reject(ResumeRejectTag),
}

/// Offer payload: 16 config-digest bytes, then `varint n` entries of
/// `(varint name_len, name bytes, 16 digest bytes)`.
pub(crate) fn encode_resume_offer(
    config_digest: &[u8; 16],
    entries: &[(String, Fingerprint)],
) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_bytes(config_digest);
    w.write_varint(entries.len() as u64);
    for (name, digest) in entries {
        w.write_varint(name.len() as u64);
        w.write_bytes(name.as_bytes());
        w.write_bytes(&digest.0);
    }
    w.into_bytes()
}

fn read_digest(r: &mut BitReader<'_>) -> Result<[u8; 16], ResumeRejectTag> {
    r.read_bytes(16).ok().and_then(|d| d.try_into().ok()).ok_or(ResumeRejectTag::MalformedOffer)
}

/// Decode a resume offer. Failures map directly onto the typed
/// rejection the server answers with — a malformed or oversized offer
/// is the *client's* problem to fall back from, never a reason to kill
/// the connection.
pub(crate) fn decode_resume_offer(
    payload: &[u8],
) -> Result<([u8; 16], Vec<(String, Fingerprint)>), ResumeRejectTag> {
    let mut r = BitReader::new(payload);
    let config_digest = read_digest(&mut r)?;
    let count = r.read_varint().map_err(|_| ResumeRejectTag::MalformedOffer)?;
    if count > MAX_COLLECTION_FILES {
        return Err(ResumeRejectTag::TooLarge);
    }
    let count = usize::try_from(count).map_err(|_| ResumeRejectTag::TooLarge)?;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let len = r.read_varint().map_err(|_| ResumeRejectTag::MalformedOffer)?;
        if len > MAX_NAME_BYTES {
            return Err(ResumeRejectTag::MalformedOffer);
        }
        let len = usize::try_from(len).map_err(|_| ResumeRejectTag::MalformedOffer)?;
        let bytes = r.read_bytes(len).map_err(|_| ResumeRejectTag::MalformedOffer)?;
        let name = String::from_utf8(bytes).map_err(|_| ResumeRejectTag::MalformedOffer)?;
        entries.push((name, Fingerprint(read_digest(&mut r)?)));
    }
    Ok((config_digest, entries))
}

/// Stable wire codes for [`ResumeRejectTag`]; the enum itself lives in
/// `msync-trace` (journal tokens), the codes live here with the codec.
fn reject_code(reason: ResumeRejectTag) -> u64 {
    match reason {
        ResumeRejectTag::ConfigMismatch => 0,
        ResumeRejectTag::MalformedOffer => 1,
        ResumeRejectTag::TooLarge => 2,
    }
}

fn reject_from_code(code: u64) -> Option<ResumeRejectTag> {
    match code {
        0 => Some(ResumeRejectTag::ConfigMismatch),
        1 => Some(ResumeRejectTag::MalformedOffer),
        2 => Some(ResumeRejectTag::TooLarge),
        _ => None,
    }
}

/// Verdict payload: accept is `1, varint n, n bits`; reject is
/// `0, varint reason_code`.
pub(crate) fn encode_resume_verdict(verdict: &ResumeVerdict) -> Vec<u8> {
    let mut w = BitWriter::new();
    match verdict {
        ResumeVerdict::Accept(bits) => {
            w.write_bits(1, 8);
            w.write_varint(bits.len() as u64);
            for &ok in bits {
                w.write_bits(u64::from(ok), 1);
            }
        }
        ResumeVerdict::Reject(reason) => {
            w.write_bits(0, 8);
            w.write_varint(reject_code(*reason));
        }
    }
    w.into_bytes()
}

pub(crate) fn decode_resume_verdict(payload: &[u8]) -> Result<ResumeVerdict, SyncError> {
    let mut r = BitReader::new(payload);
    let tag = r.read_bits(8).map_err(|_| SyncError::Desync("resume verdict tag"))?;
    match tag {
        1 => {
            let count = r.read_varint().map_err(|_| SyncError::Desync("resume verdict count"))?;
            if count > MAX_COLLECTION_FILES {
                return Err(SyncError::Desync("resume verdict count exceeds cap"));
            }
            let count =
                usize::try_from(count).map_err(|_| SyncError::Desync("resume verdict count"))?;
            let mut bits = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let b = r.read_bits(1).map_err(|_| SyncError::Desync("resume verdict bit"))?;
                bits.push(b == 1);
            }
            Ok(ResumeVerdict::Accept(bits))
        }
        0 => {
            let code = r.read_varint().map_err(|_| SyncError::Desync("resume reject code"))?;
            let reason =
                reject_from_code(code).ok_or(SyncError::Desync("unknown resume reject code"))?;
            Ok(ResumeVerdict::Reject(reason))
        }
        _ => Err(SyncError::Desync("resume verdict tag")),
    }
}

/// Drive `m` over `t` until it finishes: transmit queued frames,
/// attribute inbound bytes, and on `Wait` block in `recv_timeout` until
/// a frame arrives or the machine's deadline passes. `clock` supplies
/// the `now_us` timeline the machine's deadlines live on.
///
/// `after_input` is the durability hook: it runs after every frame the
/// machine absorbs (and once more when it finishes), which is exactly
/// when new progress can exist to persist. The checkpoint writer drains
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
/// with every file that fits [`WINDOW_BUDGET_BYTES`] (and
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
    sync_collection_client_resumable(t, old, cfg, opts, None, &mut |_| Ok(()))
}

/// [`sync_collection_client`] with crash-recovery hooks: an optional
/// [`ResumePlan`] offered to the server in the roster exchange (files
/// the server confirms skip their sessions entirely), and an
/// `on_complete` durability sink invoked for every file the moment it
/// finishes — the CLI applies it atomically and appends a checkpoint
/// line there, so an interrupted run can resume from the last
/// completed file.
///
/// A sink error aborts the session as [`SyncError::Persist`]: progress
/// that cannot be made durable must not be reported as such.
pub fn sync_collection_client_resumable(
    t: &mut dyn Transport,
    old: &[FileEntry],
    cfg: &ProtocolConfig,
    opts: &PipelineOptions,
    resume: Option<&ResumePlan>,
    on_complete: &mut dyn FnMut(&CompletedFile) -> Result<(), String>,
) -> Result<CollectionOutcome, SyncError> {
    let rec = t.recorder();
    let clock = SystemClock::new();
    let mut machine = CollectionClientMachine::new(
        old,
        cfg,
        opts.depth,
        opts.retry,
        rec,
        resume,
        clock.now_micros(),
    )?;
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
/// are served as the caller holds them, each session fingerprinting its
/// own file, with no cross-session cache. The daemon instead shares one
/// [`CollectionSnapshot`](crate::CollectionSnapshot) across every
/// [`CollectionServeMachine`] it multiplexes, so its cache is warm
/// across sessions.
///
/// A vanished peer after the roster exchange is the normal end of
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

/// Run one collection sync over an in-process duplex channel:
/// [`sync_collection_client`] and [`serve_collection`] on the two ends
/// of an [`Endpoint`] pair, the server on its own thread — the
/// deployment shape of the library without a socket. On a clean link it
/// costs exactly what [`sync_collection`] does (same machines, same
/// meter); `opts.fault_plan` puts the seeded fault injector on the link
/// and the retry timers to work. A single file is a one-entry
/// collection.
///
/// Whenever this returns `Ok`, every file is byte-exact; link failures
/// that outlast the retry budget surface as [`SyncError::Timeout`] /
/// [`SyncError::FrameCorrupt`] / [`SyncError::PeerGone`].
pub fn sync_collection_channel(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    opts: &ChannelOptions,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let (mut client_ep, mut server_ep) = match &opts.fault_plan {
        Some(plan) => Endpoint::pair_with_faults(plan, opts.fault_seed),
        None => Endpoint::pair(),
    };
    // The endpoints share channel state, so one attach covers both.
    client_ep.set_recorder(recorder.clone());
    let pipeline = PipelineOptions { retry: opts.retry, ..PipelineOptions::default() };
    std::thread::scope(|s| {
        let server = s.spawn(move || serve_collection(&mut server_ep, new, cfg, pipeline.retry));
        let result = sync_collection_client(&mut client_ep, old, cfg, &pipeline);
        // Dropping the client endpoint is the hang-up signal that lets a
        // lingering server finish.
        drop(client_ep);
        let served = server.join().map_err(|_| SyncError::Desync("server thread panicked"));
        let outcome = result?;
        served??;
        Ok(outcome)
    })
}

/// The clock reading every in-process exchange runs at: held fixed, so
/// no retry deadline ever passes — a slow machine cannot fire a spurious
/// retransmission — and a traced run's journal is byte-stable.
const IN_PROCESS_NOW_US: u64 = 0;

/// Synchronize the client's `old` collection to the server's `new` one,
/// in process.
///
/// The outcome's `files`/`per_file` follow sorted-name (roster) order,
/// so the result is a pure function of the two collections' *contents*
/// — callers may present their entries in any order. `traffic` is what
/// the wire would carry: the roster exchange, one batch frame per
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
/// the returned [`TrafficStats`] exactly, and under a deterministic
/// clock two runs write the same journal.
pub fn sync_collection_traced(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let new: Vec<FileRef<'_>> = new.iter().map(FileRef::from).collect();
    sync_in_process(old.iter().map(FileRef::from).collect(), &new, cfg, recorder)
}

/// Both machines on one thread: every frame either side transmits is
/// charged once to one [`WireMeter`] and handed straight to the peer.
pub(crate) fn sync_in_process(
    old: Vec<FileRef<'_>>,
    new: &[FileRef<'_>],
    cfg: &ProtocolConfig,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let (retry, now) = (RetryPolicy::default(), IN_PROCESS_NOW_US);
    let mut client =
        CollectionClientMachine::new(old, cfg, usize::MAX, retry, recorder.clone(), None, now)?;
    let mut server =
        CollectionServeMachine::<[FileRef<'_>]>::new(cfg, retry, recorder.clone(), now)?;
    let mut meter = WireMeter::default();
    meter.set_recorder(recorder.clone());
    loop {
        match hand_over(&mut client, &mut server, new, Direction::ClientToServer, &mut meter)? {
            None => return client.finish(meter.stats()),
            Some(0) => return Err(SyncError::Desync("in-process sync stalled")),
            Some(_) => {
                hand_over(&mut server, &mut client, &(), Direction::ServerToClient, &mut meter)?
            }
        };
    }
}

/// Drain `from`'s effects, charging each frame it transmits to `meter`
/// and feeding it to `to`. Returns the frames handed over, or `None`
/// once `from` is done.
fn hand_over<A: Machine, B: Machine>(
    from: &mut A,
    to: &mut B,
    ctx: &B::Ctx,
    dir: Direction,
    meter: &mut WireMeter,
) -> Result<Option<u64>, SyncError> {
    let mut frames = 0;
    loop {
        match from.poll_output(IN_PROCESS_NOW_US)? {
            Output::Transmit { frame, split, retransmit } => {
                meter.sent(dir, split, frame.len());
                if retransmit {
                    meter.note_retransmits(1);
                }
                to.on_frame(ctx, &frame, IN_PROCESS_NOW_US)?;
                frames += 1;
            }
            // Charged on send, as the in-memory channel charges a link.
            Output::Attribute { .. } => {}
            Output::Wait { .. } => return Ok(Some(frames)),
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

    fn entry(name: &str, data: &[u8]) -> FileEntry {
        FileEntry::new(name, data.to_vec())
    }

    /// Both ends over a clean channel at an explicit depth, with an
    /// optional resume plan; also returns what the durability sink saw.
    fn run(
        old: &[FileEntry],
        new: &[FileEntry],
        cfg: &ProtocolConfig,
        depth: usize,
        plan: Option<&ResumePlan>,
    ) -> (CollectionOutcome, ServeOutcome, Vec<CompletedFile>) {
        let (mut client_ep, mut server_ep) = Endpoint::pair();
        thread::scope(|s| {
            let server =
                s.spawn(|| serve_collection(&mut server_ep, new, cfg, RetryPolicy::default()));
            let opts = PipelineOptions { depth, retry: RetryPolicy::default() };
            let mut completed = Vec::new();
            let out =
                sync_collection_client_resumable(&mut client_ep, old, cfg, &opts, plan, &mut |f| {
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
    fn roster_roundtrips() {
        let names = ["a.txt", "dir/b.txt", "z"];
        let decoded = decode_roster(&encode_roster(&names)).unwrap();
        assert_eq!(decoded, names);
        assert!(decode_roster(&[0xff; 3]).is_err());
    }

    #[test]
    fn batch_roundtrips() {
        let entries = vec![
            (0usize, vec![Part { phase: Phase::Setup, payload: vec![1, 2, 3].into() }]),
            (
                7usize,
                vec![
                    Part { phase: Phase::Map, payload: vec![].into() },
                    Part { phase: Phase::Delta, payload: vec![9; 40].into() },
                ],
            ),
        ];
        let decoded = decode_batch(&encode_batch(&entries).into()).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, 0);
        assert_eq!(decoded[0].1[0].payload, vec![1, 2, 3]);
        assert_eq!(decoded[1].0, 7);
        assert_eq!(decoded[1].1[1].phase, Phase::Delta);
        assert_eq!(decoded[1].1[1].payload, vec![9; 40]);
        assert!(decode_batch(&vec![0xff; 2].into()).is_err());
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
        let (out, srv, _) = run(&old, &new, &cfg, 8, None);

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
        assert_eq!(srv.sessions, 3);
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

        let (seq, ..) = run(&old, &files, &cfg, 1, None);
        let (pipe, ..) = run(&old, &files, &cfg, 16, None);
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
        let (out, srv, _) = run(&old, &[], &cfg, 4, None);
        assert!(out.files.is_empty());
        assert_eq!(out.deleted, 1);
        assert_eq!(srv.files, 0);
        assert_eq!(srv.sessions, 0);

        let (out, srv, _) = run(&[], &[], &cfg, 4, None);
        assert!(out.files.is_empty());
        assert_eq!(srv.sessions, 0);
    }

    #[test]
    fn client_from_nothing_receives_everything() {
        let cfg = ProtocolConfig::default();
        let new = vec![entry("a", b"alpha contents"), entry("b", &b"beta ".repeat(500))];
        let (out, ..) = run(&[], &new, &cfg, 4, None);
        assert_eq!(out.created, 2);
        assert_eq!(out.files.len(), 2);
        assert_eq!(out.files[0].data, b"alpha contents");
        assert_eq!(out.files[1].data, b"beta ".repeat(500));
    }

    #[test]
    fn resume_offer_roundtrips() {
        use msync_hash::file_fingerprint;
        let digest = [7u8; 16];
        let entries = vec![
            ("a.txt".to_string(), file_fingerprint(b"alpha")),
            ("dir/b".to_string(), file_fingerprint(b"beta")),
        ];
        let encoded = encode_resume_offer(&digest, &entries);
        let (d, e) = decode_resume_offer(&encoded).unwrap();
        assert_eq!(d, digest);
        assert_eq!(e, entries);
        assert!(matches!(
            decode_resume_offer(&encoded[..encoded.len() - 1]),
            Err(msync_trace::ResumeRejectTag::MalformedOffer)
        ));
        assert!(matches!(
            decode_resume_offer(&[0u8; 4]),
            Err(msync_trace::ResumeRejectTag::MalformedOffer)
        ));
    }

    #[test]
    fn resume_verdict_roundtrips() {
        let accept = ResumeVerdict::Accept(vec![true, false, true, true]);
        match decode_resume_verdict(&encode_resume_verdict(&accept)).unwrap() {
            ResumeVerdict::Accept(bits) => assert_eq!(bits, vec![true, false, true, true]),
            ResumeVerdict::Reject(_) => panic!("expected accept"),
        }
        for reason in [
            msync_trace::ResumeRejectTag::ConfigMismatch,
            msync_trace::ResumeRejectTag::MalformedOffer,
            msync_trace::ResumeRejectTag::TooLarge,
        ] {
            let reject = ResumeVerdict::Reject(reason);
            match decode_resume_verdict(&encode_resume_verdict(&reject)).unwrap() {
                ResumeVerdict::Reject(r) => assert_eq!(r, reason),
                ResumeVerdict::Accept(_) => panic!("expected reject"),
            }
        }
        assert!(decode_resume_verdict(&[9]).is_err());
    }

    #[test]
    fn accepted_resume_entries_skip_sessions() {
        use msync_hash::file_fingerprint;
        let big = b"shared content ".repeat(400);
        let changed_old = b"old divergent body ".repeat(100);
        let changed_new = b"new divergent body ".repeat(100);
        let old = vec![entry("done.bin", &big), entry("wip.bin", &changed_old)];
        let new = vec![entry("done.bin", &big), entry("wip.bin", &changed_new)];
        let cfg = ProtocolConfig::default();

        let mut plan = crate::resume::ResumePlan::new(&cfg);
        plan.add("done.bin", file_fingerprint(&big));

        let (out, srv, completed) = run(&old, &new, &cfg, 8, Some(&plan));
        assert_eq!(out.resumed, 1);
        assert_eq!(out.unchanged, 0);
        // Only the changed file ran a session.
        assert_eq!(srv.sessions, 1);
        let by_name: HashMap<&str, &[u8]> =
            new.iter().map(|f| (f.name.as_str(), f.data.as_slice())).collect();
        for f in &out.files {
            assert_eq!(f.data.as_slice(), by_name[f.name.as_str()], "{}", f.name);
        }
        // The sink saw both files; the resumed one is flagged, round 0.
        assert_eq!(completed.len(), 2);
        let resumed = completed.iter().find(|f| f.name == "done.bin").unwrap();
        assert!(resumed.resumed);
        assert_eq!(resumed.round, 0);
        assert_eq!(*resumed.data, big);
        let synced = completed.iter().find(|f| f.name == "wip.bin").unwrap();
        assert!(!synced.resumed);
        assert!(synced.round > 0);
    }

    #[test]
    fn stale_resume_entries_are_declined_not_fatal() {
        use msync_hash::file_fingerprint;
        let body = b"current server content ".repeat(200);
        let old = vec![entry("f.bin", &body)];
        let new = vec![entry("f.bin", &b"server moved on ".repeat(200))];
        let cfg = ProtocolConfig::default();

        // The checkpoint digest matches the client's copy but no longer
        // matches the server's content: the server must decline it and
        // the file syncs normally.
        let mut plan = crate::resume::ResumePlan::new(&cfg);
        plan.add("f.bin", file_fingerprint(&body));

        let (out, srv, _) = run(&old, &new, &cfg, 8, Some(&plan));
        assert_eq!(out.resumed, 0);
        assert_eq!(srv.sessions, 1);
        assert_eq!(out.files[0].data, new[0].data);
    }

    #[test]
    fn config_mismatch_rejects_offer_and_full_sync_proceeds() {
        use msync_hash::file_fingerprint;
        let body = b"identical both sides ".repeat(200);
        let old = vec![entry("f.bin", &body)];
        let new = vec![entry("f.bin", &body)];
        let cfg = ProtocolConfig::default();

        // Plan built under a different protocol config: the server
        // rejects the whole offer and every file runs a session.
        let other = ProtocolConfig { start_block: cfg.start_block * 2, ..cfg.clone() };
        let mut plan = crate::resume::ResumePlan::new(&other);
        plan.add("f.bin", file_fingerprint(&body));

        let (out, srv, _) = run(&old, &new, &cfg, 8, Some(&plan));
        assert_eq!(out.resumed, 0);
        assert_eq!(out.unchanged, 1);
        assert_eq!(srv.sessions, 1);
        assert_eq!(out.files[0].data, body);
    }

    #[test]
    fn plan_entries_unverifiable_locally_are_not_offered() {
        use msync_hash::file_fingerprint;
        let body = b"real local bytes ".repeat(100);
        let old = vec![entry("f.bin", &body)];
        let new = vec![entry("f.bin", &body)];
        let cfg = ProtocolConfig::default();

        // The plan claims a digest the local file does not have (e.g. a
        // crash between apply and checkpoint): the client must drop the
        // entry before offering, and the sync stays correct.
        let mut plan = crate::resume::ResumePlan::new(&cfg);
        plan.add("f.bin", file_fingerprint(b"something else"));
        plan.add("ghost.bin", file_fingerprint(&body));

        let (out, srv, _) = run(&old, &new, &cfg, 8, Some(&plan));
        assert_eq!(out.resumed, 0);
        assert_eq!(srv.sessions, 1);
        assert_eq!(out.files[0].data, body);
    }
}
