//! Pipelined collection synchronization: the one wire protocol and its
//! drivers.
//!
//! Every sync runs the same two sans-IO machines,
//! [`CollectionClientMachine`] and [`CollectionServeMachine`]. Three
//! drivers move their frames:
//!
//! * [`sync_collection`] (and [`sync_file`](crate::sync_file), a
//!   one-entry collection) pumps both from the caller's thread, handing
//!   each frame straight to the peer and charging it once to a
//!   [`WireMeter`], with no clock. Each batch's per-file session work
//!   runs on one worker per core (scoped to that batch), its results
//!   committed in wire order; a traced run uses one thread, so its
//!   journal is byte-stable;
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
//! larger one pays that once per budget's worth of content. The files of
//! a batch are processed simultaneously in the CPU's sense too when the
//! in-process pump runs them: their session steps are independent jobs.
//!
//! ## Wire schedule
//!
//! 1. Client opens with one empty `Setup` part.
//! 2. Server replies with its roster: every file in sorted-name order,
//!    front-coded against the previous name, with its length and the
//!    first bytes of its 16-byte fingerprint: about log2(files) bits
//!    plus an 8-bit margin. A file's position in the
//!    roster is the file id every later batch uses.
//! 3. The client settles what it can at once, provisionally: a local
//!    copy of the served length whose fingerprint starts with the
//!    roster's weak bytes is probably unchanged; a local name missing
//!    from the roster is deleted. Only the other files enter the window.
//! 4. Repeat until the client has no in-flight files: client packs one
//!    message per in-flight file into a batch frame — a file's first
//!    message is just its local length — and the server feeds each to
//!    that file's `ServerSession` and packs the replies into the mirror
//!    batch. A session's first reply starts with the rest of the file's
//!    fingerprint, so a changed file still gets all 16 bytes to check
//!    its reconstruction against. Files finish at their own pace; freed
//!    budget admits the next changed files in roster order.
//! 5. The group check (the paper's technique (b) applied to the
//!    roster): the client's first batch also carries a bitmap of the
//!    provisionally settled files and one MD5 over their full local
//!    fingerprints, and the server's first reply one verdict. A pass
//!    completes them all as unchanged; a fail carries the rest of each
//!    one's fingerprint, and the client opens a session for every file
//!    that then differs. No file is complete before its verdict. With
//!    nothing provisional there is no group; with nothing else to open
//!    the verdict costs one roundtrip of its own.
//! 6. The client hangs up; the server treats the peer-gone condition
//!    as the normal end of service and lingers briefly for stragglers.
//!
//! The fingerprints cross once, server to client, as in the paper's
//! "up front" filter. Renames are not detected: a renamed file costs a
//! create plus a delete.
//!
//! Every byte is charged where it crosses: a batch frame's bytes go to
//! the phases of the parts inside it, and its framing to the largest
//! of those shares ([`PhaseSplit`]). The group check and its verdict are
//! setup; a fingerprint remainder is charged with the session part it
//! heads.

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::Builder;

use msync_hash::{file_fingerprint, BitReader, BitWriter, Fingerprint, Md5};
use msync_protocol::{
    frame_wire_size, ChannelError, Direction, Endpoint, FrameBuf, Phase, PhaseSplit, RetryPolicy,
    TrafficStats, Transport, WireMeter,
};
use msync_trace::{Clock, Recorder, SystemClock};

use crate::collection::{CollectionOutcome, FileEntry, FileRef};
use crate::config::{ChannelOptions, ProtocolConfig};
use crate::engine::arq::{
    encode_arq_frame_into, parse_part_header, part_header, MAX_PARTS_PER_MESSAGE,
};
use crate::engine::{
    run_in_order, CollectionClientMachine, CollectionServeMachine, CompletedFile, Job, Machine,
    Output, Runner,
};
use crate::session::{Part, SyncError};

/// Upper bound on files in one collection roster. A count above this in
/// a decoded roster or batch is treated as a desync, not an allocation
/// request.
const MAX_COLLECTION_FILES: u64 = 1 << 20;

/// Upper bound on a single file name in a roster.
const MAX_NAME_BYTES: u64 = 4096;

/// Decoded name bytes a roster may spell per byte of its payload.
/// Front coding lets an entry of about 10 wire bytes (a shared prefix of
/// 4 094 bytes, a two-byte suffix, the length, the weak fingerprint)
/// stand for a name of [`MAX_NAME_BYTES`], so with no bound a 10 MB
/// roster of 2^20 such entries decodes into 4 GiB of names. The corpora
/// here decode at 1.4 name bytes per payload byte; a deep real tree, where
/// a 165-byte path differs from the one before it in a six-byte suffix,
/// at about 12. 32 leaves room for paths three times as deep, and holds a
/// lying server to 32 bytes of names for every byte it sent.
const MAX_NAME_EXPANSION: u64 = 32;

/// Content bytes the pipelined client keeps in open file sessions. A
/// session counts the larger of its local copy and the server's length
/// (a delta is decoded against one into the other), both known from the
/// roster when it is admitted; files join in roster order while the sum
/// stays within this budget, and a file larger than the whole budget
/// runs alone. It bounds what the window costs — session state, the size
/// of a batch frame, the work lost to a crash — without putting the
/// window between a collection and the roundtrip count of its longest
/// session: 16 MiB is every corpus in EXPERIMENTS.md many times over.
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
    /// Files the client opened a session for: the changed and created
    /// ones. An unchanged file never reaches the server after the roster.
    pub sessions: usize,
    /// Wire traffic as measured by the server's transport.
    pub traffic: TrafficStats,
}

/// Margin, in bits, that the roster's weak fingerprints keep above
/// log2 of the roster size: a changed file of unchanged length passes
/// for unchanged with probability 2^-(log2 n + margin), so a roster's
/// group check fails in about one sync of 2^margin.
const WEAK_MARGIN_BITS: u32 = 8;

/// Bytes of the group hash that confirms the provisionally settled
/// files: one MD5.
const GROUP_DIGEST_BYTES: usize = 16;

#[cfg(test)]
thread_local! {
    /// Overrides [`weak_fp_bytes`] for every roster this thread
    /// encodes or decodes: 0 makes every local copy of the served
    /// length settle provisionally, so a changed one fails the group
    /// check and is salvaged.
    pub(crate) static FORCED_WEAK_BYTES: std::cell::Cell<Option<usize>> =
        const { std::cell::Cell::new(None) };
}

/// Fingerprint bytes a roster of `files` entries carries per file:
/// ceil(log2 files) + [`WEAK_MARGIN_BITS`] bits, rounded up to whole
/// bytes — 2 at 200 files, 3 at 10 000. A session's first reply carries
/// the other bytes.
pub(crate) fn weak_fp_bytes(files: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = FORCED_WEAK_BYTES.with(std::cell::Cell::get) {
        return forced;
    }
    let bits = usize::BITS - files.saturating_sub(1).leading_zeros() + WEAK_MARGIN_BITS;
    // At most 9 bytes for any roster size: never a whole fingerprint.
    usize::try_from(bits.div_ceil(8)).unwrap_or(Fingerprint::WIRE_LEN)
}

/// One served file as the roster lists it: everything a client needs to
/// settle an unchanged file provisionally, and to size a changed one,
/// before any session opens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RosterEntry {
    pub(crate) name: String,
    pub(crate) len: u64,
    /// The fingerprint's first [`weak_fp_bytes`] bytes; the rest are
    /// zero until the session's first reply or a salvage brings them.
    pub(crate) fp: Fingerprint,
}

/// Roster payload: `varint n`, then per file in strictly increasing name
/// order the name front-coded against the previous one (`varint shared`
/// prefix bytes, `varint suffix_len`, the suffix bytes), `varint len`
/// and the first [`weak_fp_bytes`]`(n)` fingerprint bytes.
pub(crate) fn encode_roster(files: &[(&str, u64, Fingerprint)]) -> Vec<u8> {
    let weak = weak_fp_bytes(files.len());
    let mut w = BitWriter::new();
    w.write_varint(files.len() as u64);
    let mut prev: &[u8] = &[];
    for &(name, len, fp) in files {
        let name = name.as_bytes();
        let shared = prev.iter().zip(name).take_while(|(a, b)| a == b).count();
        w.write_varint(shared as u64);
        w.write_varint((name.len() - shared) as u64);
        w.write_bytes(&name[shared..]);
        w.write_varint(len);
        w.write_bytes(&fp.0[..weak]);
        prev = name;
    }
    w.into_bytes()
}

/// Decode a roster. A lying server gets a typed [`SyncError::Desync`]
/// for every way it could make one name stand for two files or size a
/// file no stream can carry: names out of order or repeated, a prefix
/// longer than the name it extends, a length above
/// [`MAX_STREAM_LEN`](msync_compress::MAX_STREAM_LEN), a truncated
/// fingerprint, a count above the collection cap. Names that would
/// decode past [`MAX_NAME_EXPANSION`] times the payload are refused too,
/// before they are built.
pub(crate) fn decode_roster(payload: &[u8]) -> Result<Vec<RosterEntry>, SyncError> {
    let mut name_budget = (payload.len() as u64).saturating_mul(MAX_NAME_EXPANSION);
    let mut r = BitReader::new(payload);
    let count = r.read_varint().map_err(|_| SyncError::Desync("roster count"))?;
    if count > MAX_COLLECTION_FILES {
        return Err(SyncError::Desync("roster count exceeds cap"));
    }
    let count = usize::try_from(count).map_err(|_| SyncError::Desync("roster count"))?;
    let weak = weak_fp_bytes(count);
    let mut files: Vec<RosterEntry> = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let prev = files.last().map_or(&[][..], |f| f.name.as_bytes());
        let shared = r.read_varint().map_err(|_| SyncError::Desync("roster name prefix"))?;
        let shared = usize::try_from(shared)
            .ok()
            .filter(|&shared| shared <= prev.len())
            .ok_or(SyncError::Desync("roster prefix longer than the previous name"))?;
        let suffix = r.read_varint().map_err(|_| SyncError::Desync("roster name len"))?;
        if suffix > MAX_NAME_BYTES - shared as u64 {
            return Err(SyncError::Desync("roster name too long"));
        }
        name_budget = name_budget
            .checked_sub(shared as u64 + suffix)
            .ok_or(SyncError::Desync("roster names exceed the payload bound"))?;
        let suffix = usize::try_from(suffix).map_err(|_| SyncError::Desync("roster name len"))?;
        let mut name = prev[..shared].to_vec();
        name.extend(r.read_bytes(suffix).map_err(|_| SyncError::Desync("roster name truncated"))?);
        if !files.is_empty() && name.as_slice() <= prev {
            return Err(SyncError::Desync("roster names not strictly increasing"));
        }
        let len = r.read_varint().map_err(|_| SyncError::Desync("roster file len"))?;
        // No stream could deliver a longer file, and the map rounds
        // would enumerate items over all of it.
        if len > msync_compress::MAX_STREAM_LEN {
            return Err(SyncError::Desync("roster file len beyond the stream limit"));
        }
        let mut fp = Fingerprint([0; Fingerprint::WIRE_LEN]);
        let weak_bytes =
            r.read_bytes(weak).map_err(|_| SyncError::Desync("roster fingerprint truncated"))?;
        fp.0[..weak].copy_from_slice(&weak_bytes);
        let name =
            String::from_utf8(name).map_err(|_| SyncError::Desync("roster name not UTF-8"))?;
        files.push(RosterEntry { name, len, fp });
    }
    Ok(files)
}

/// The client's provisional settle. `files` pairs each roster entry's
/// fingerprint, in roster order, with the full fingerprint of the
/// client's copy of the same length (`None` without one); a copy that
/// matches the roster's first `weak` bytes settles. Returns the settled
/// files, ascending, with their local fingerprints.
pub(crate) fn settle<'f>(
    files: impl IntoIterator<Item = (&'f Fingerprint, Option<Fingerprint>)>,
    weak: usize,
) -> Vec<(usize, Fingerprint)> {
    files
        .into_iter()
        .enumerate()
        .filter_map(|(id, (served, local))| {
            local.filter(|fp| fp.0[..weak] == served.0[..weak]).map(|fp| (id, fp))
        })
        .collect()
}

/// The group check that confirms every provisionally settled file at
/// once: the settled roster ids, ascending, and one MD5 over their full
/// fingerprints in that order.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct GroupCheck {
    pub(crate) settled: Vec<usize>,
    digest: [u8; GROUP_DIGEST_BYTES],
}

impl GroupCheck {
    /// The check over what [`settle`] returned; `None` when nothing
    /// settled, and the first batch then carries no check.
    pub(crate) fn over(provisional: &[(usize, Fingerprint)]) -> Option<Self> {
        if provisional.is_empty() {
            return None;
        }
        let mut md5 = Md5::new();
        provisional.iter().for_each(|(_, fp)| md5.update(&fp.0));
        Some(Self {
            settled: provisional.iter().map(|&(id, _)| id).collect(),
            digest: md5.finish(),
        })
    }

    /// The check on a roster of `roster_len` files: a bitmap with bit
    /// `id` set for each settled file, then the digest.
    pub(crate) fn encode(&self, roster_len: usize) -> Vec<u8> {
        let mut w = BitWriter::new();
        let mut settled = self.settled.iter().peekable();
        for id in 0..roster_len {
            w.write_bit(settled.next_if_eq(&&id).is_some());
        }
        let mut payload = w.into_bytes();
        payload.extend_from_slice(&self.digest);
        payload
    }

    /// Decode a check against a roster of `roster_len` files. A bitmap
    /// that runs past the roster (a longer payload, or a padding bit
    /// set) or settles nothing is a [`SyncError::Desync`].
    pub(crate) fn decode(payload: &[u8], roster_len: usize) -> Result<Self, SyncError> {
        let map_len = roster_len.div_ceil(8);
        let longer = SyncError::Desync("settled bitmap longer than the roster");
        let (map, digest) = match payload.len().checked_sub(map_len + GROUP_DIGEST_BYTES) {
            Some(0) => payload.split_at(map_len),
            Some(_) => return Err(longer),
            None => return Err(SyncError::Desync("group check truncated")),
        };
        let mut r = BitReader::new(map);
        let mut settled = Vec::new();
        for id in 0..map_len * 8 {
            if r.read_bit().map_err(|_| SyncError::Desync("group check truncated"))? {
                if id >= roster_len {
                    return Err(longer);
                }
                settled.push(id);
            }
        }
        if settled.is_empty() {
            return Err(SyncError::Desync("group check settles no file"));
        }
        let digest = digest.try_into().map_err(|_| SyncError::Desync("group check truncated"))?;
        Ok(Self { settled, digest })
    }

    /// The server's judgement against its own full fingerprints `fps`,
    /// in roster order, of which the roster carried the first `weak`
    /// bytes: whether every settled file passes, and the verdict — `1`
    /// on a pass; on a fail `0`, then the rest of each settled file's
    /// fingerprint, in roster order.
    pub(crate) fn judge(&self, fps: &[Fingerprint], weak: usize) -> (bool, Vec<u8>) {
        let mut md5 = Md5::new();
        self.settled.iter().for_each(|&id| md5.update(&fps[id].0));
        let pass = md5.finish() == self.digest;
        let mut verdict = vec![u8::from(pass)];
        if !pass {
            self.settled.iter().for_each(|&id| verdict.extend_from_slice(&fps[id].0[weak..]));
        }
        (pass, verdict)
    }
}

/// Decode a verdict on `settled` files whose remainders are `rest`
/// bytes each: `None` on a pass, the remainders back to back on a fail.
pub(crate) fn decode_verdict(
    payload: &FrameBuf,
    settled: usize,
    rest: usize,
) -> Result<Option<FrameBuf>, SyncError> {
    match payload.first() {
        Some(1) if payload.len() == 1 => Ok(None),
        Some(0) if payload.len() - 1 == settled * rest => Ok(Some(payload.slice(1, payload.len()))),
        Some(0) => Err(SyncError::Desync("salvage list does not match the settled set")),
        _ => Err(SyncError::Desync("group verdict")),
    }
}

/// A batch as decoded: one message per file, and the roster's group
/// check (client) or its verdict (server), which only the first batch
/// of each direction carries.
#[derive(Debug, Default)]
pub(crate) struct Batch {
    pub(crate) files: Vec<(usize, Vec<Part>)>,
    pub(crate) check: Option<Part>,
}

/// Pack one round message per in-flight file into a single frame
/// payload: `varint n, then per file (varint id, varint n_parts, parts)`,
/// then the optional `check` part. A part is `1 phase byte, varint len,
/// payload bytes`.
pub(crate) fn encode_batch(entries: &[(usize, Vec<Part>)], check: Option<&Part>) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_varint(entries.len() as u64);
    for (id, parts) in entries {
        w.write_varint(*id as u64);
        w.write_varint(parts.len() as u64);
        parts.iter().for_each(|part| write_part(&mut w, part));
    }
    if let Some(part) = check {
        write_part(&mut w, part);
    }
    w.into_bytes()
}

fn write_part(w: &mut BitWriter, part: &Part) {
    w.write_bits(u64::from(part_header(part.phase, false)), 8);
    w.write_varint(part.payload.len() as u64);
    w.write_bytes(&part.payload);
}

/// Decode a batch into its files' messages and its check part; every
/// part is a zero-copy view of `payload`.
pub(crate) fn decode_batch(payload: &FrameBuf) -> Result<Batch, SyncError> {
    let mut r = BitReader::new(payload);
    let count = r.read_varint().map_err(|_| SyncError::Desync("batch count"))?;
    if count > MAX_COLLECTION_FILES {
        return Err(SyncError::Desync("batch count exceeds cap"));
    }
    let count = usize::try_from(count).map_err(|_| SyncError::Desync("batch count"))?;
    let mut files = Vec::with_capacity(count.min(1024));
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
        let parts = (0..n_parts).map(|_| read_part(&mut r, payload)).collect::<Result<_, _>>()?;
        files.push((id, parts));
    }
    let check = match r.remaining_bits() {
        0 => None,
        _ => Some(read_part(&mut r, payload)?),
    };
    if r.remaining_bits() > 0 {
        return Err(SyncError::Desync("batch trailing bytes"));
    }
    if check.as_ref().is_some_and(|part| part.phase != Phase::Setup) {
        return Err(SyncError::Desync("batch check part is not setup"));
    }
    Ok(Batch { files, check })
}

fn read_part(r: &mut BitReader<'_>, payload: &FrameBuf) -> Result<Part, SyncError> {
    let header = r.read_bits(8).map_err(|_| SyncError::Desync("batch part header"))?;
    let header = u8::try_from(header).map_err(|_| SyncError::Desync("batch header"))?;
    let (phase, _more) = parse_part_header(header).ok_or(SyncError::Desync("batch phase tag"))?;
    let len = r.read_varint().map_err(|_| SyncError::Desync("batch part len"))?;
    let len = usize::try_from(len).map_err(|_| SyncError::Desync("batch part len"))?;
    // Every field before a payload is whole bytes: it starts aligned.
    let start = payload.len() - r.remaining_bits() / 8;
    r.skip_bytes(len).map_err(|_| SyncError::Desync("batch part truncated"))?;
    Ok(Part { phase, payload: payload.slice(start, start + len) })
}

/// How a batch frame divides across its parts' phases; the batch's own
/// headers are framing. A batch that does not parse is all map phase.
pub(crate) fn batch_split(payload: &FrameBuf) -> PhaseSplit {
    let mut split = PhaseSplit::from(Phase::Map);
    let batch = decode_batch(payload).unwrap_or_default();
    for part in batch.files.iter().flat_map(|(_, parts)| parts).chain(&batch.check) {
        split.add(part.phase, part.payload.len() as u64);
    }
    split
}

/// Wire bytes of the roster exchange for serving `new` to a client that
/// holds `old`: the roster frame, plus — when a local copy passes for
/// unchanged on its weak fingerprint bytes — the group check and the
/// verdict, as the parts the first batch and its reply carry, decided by
/// the same `settle` and `GroupCheck` the machines run. It is what a
/// collection sync pays, once, to tell the client which files the server
/// holds, how long they are and which of its own copies are current. The
/// paper harness charges the per-file baselines the same bytes.
pub fn roster_frame_bytes(old: &[FileRef<'_>], new: &[FileRef<'_>]) -> u64 {
    let mut listed: Vec<(&str, u64, Fingerprint)> =
        new.iter().map(|f| (f.name, f.data.len() as u64, file_fingerprint(f.data))).collect();
    listed.sort_unstable_by(|a, b| a.0.cmp(b.0));
    let part = Part { phase: Phase::Setup, payload: encode_roster(&listed).into() };
    let mut frame = Vec::new();
    encode_arq_frame_into(&mut frame, 0, 0, false, &part);
    let roster = frame_wire_size(frame.len());

    let weak = weak_fp_bytes(listed.len());
    let local: HashMap<&str, &[u8]> = old.iter().map(|f| (f.name, f.data)).collect();
    let fps: Vec<Fingerprint> = listed.iter().map(|&(_, _, fp)| fp).collect();
    let mine = listed.iter().map(|&(name, len, _)| {
        local.get(name).filter(|data| data.len() as u64 == len).map(|data| file_fingerprint(data))
    });
    let Some(check) = GroupCheck::over(&settle(fps.iter().zip(mine), weak)) else {
        return roster;
    };
    let (_, verdict) = check.judge(&fps, weak);
    let in_batch = |payload: Vec<u8>| {
        let mut w = BitWriter::new();
        write_part(&mut w, &Part { phase: Phase::Setup, payload: payload.into() });
        w.into_bytes().len() as u64
    };
    roster + in_batch(check.encode(fps.len())) + in_batch(verdict)
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

/// Both machines pumped by the caller's thread: every frame either side
/// transmits is charged once to one [`WireMeter`] and handed straight to
/// the peer, and each batch's per-file session work runs on every core
/// ([`run_on_cores`]), its results committed in wire order. A traced run
/// stays on one thread, so its journal is byte-stable.
pub(crate) fn sync_in_process(
    old: Vec<FileRef<'_>>,
    new: &[FileRef<'_>],
    cfg: &ProtocolConfig,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let runner: Runner = if recorder.is_enabled() { run_in_order } else { run_on_cores };
    pump_in_process(old, new, cfg, recorder, runner)
}

/// [`sync_in_process`] with each batch's jobs run by `runner`.
fn pump_in_process(
    old: Vec<FileRef<'_>>,
    new: &[FileRef<'_>],
    cfg: &ProtocolConfig,
    recorder: &Recorder,
    runner: Runner,
) -> Result<CollectionOutcome, SyncError> {
    let (retry, now) = (RetryPolicy::default(), IN_PROCESS_NOW_US);
    let mut client =
        CollectionClientMachine::new(old, cfg, usize::MAX, retry, recorder.clone(), now)?;
    let mut server =
        CollectionServeMachine::<[FileRef<'_>]>::new(cfg, retry, recorder.clone(), now)?;
    client.set_runner(runner);
    server.set_runner(runner);
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
    fn roster_roundtrips() {
        let files = [
            ("", 0, file_fingerprint(b"")),
            ("a.txt", 5, file_fingerprint(b"alpha")),
            ("a.txt~", 1 << 30, file_fingerprint(b"x")),
            ("dir/b.txt", 3, file_fingerprint(b"bee")),
            ("z", 1, file_fingerprint(b"z")),
        ];
        // Five files: 3 + 8 bits of weak fingerprint, two bytes.
        let weak = weak_fp_bytes(files.len());
        assert_eq!(weak, 2);
        let decoded = decode_roster(&encode_roster(&files)).unwrap();
        let back: Vec<(&str, u64)> = decoded.iter().map(|f| (f.name.as_str(), f.len)).collect();
        assert_eq!(back, files.map(|(name, len, _)| (name, len)));
        for (got, (_, _, fp)) in decoded.iter().zip(files) {
            assert_eq!(got.fp.0[..weak], fp.0[..weak]);
            assert!(got.fp.0[weak..].iter().all(|&b| b == 0), "only the weak bytes cross");
        }
        assert!(decode_roster(&[0xff; 3]).is_err());
        // Front coding: `a.txt~` after `a.txt` spells one byte of name
        // (two and three files are both two weak bytes wide).
        assert_eq!(weak_fp_bytes(2), weak_fp_bytes(3));
        let two = encode_roster(&files[0..2]).len();
        let three = encode_roster(&files[0..3]).len();
        assert_eq!(three - two, 1 + 1 + 1 + 5 + weak_fp_bytes(3));
    }

    #[test]
    fn a_full_size_crawl_roster_decodes() {
        // The paper's crawl at full scale: 10 000 pages, well inside the
        // name bound.
        let crawl = msync_corpus::web_collection(&msync_corpus::web_params(1.0), 0);
        let files: Vec<(&str, u64, Fingerprint)> = crawl.versions[0]
            .files()
            .iter()
            .map(|f| (f.name.as_str(), f.data.len() as u64, file_fingerprint(f.name.as_bytes())))
            .collect();
        assert_eq!(files.len(), 10_000);
        let decoded = decode_roster(&encode_roster(&files)).expect("a real roster decodes");
        assert!(decoded
            .iter()
            .zip(&files)
            .all(|(got, want)| got.name == want.0 && got.len == want.1));
    }

    #[test]
    fn weak_width_grows_with_the_roster() {
        let widths = [1, 2, 200, 256, 257, 1_000, 10_000, 1 << 20].map(weak_fp_bytes);
        assert_eq!(widths, [1, 2, 2, 2, 3, 3, 3, 4]);
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
        let decoded = decode_batch(&encode_batch(&entries, None).into()).unwrap();
        assert!(decoded.check.is_none());
        let decoded = decoded.files;
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].0, 0);
        assert_eq!(decoded[0].1[0].payload, vec![1, 2, 3]);
        assert_eq!(decoded[1].0, 7);
        assert_eq!(decoded[1].1[1].phase, Phase::Delta);
        assert_eq!(decoded[1].1[1].payload, vec![9; 40]);
        assert!(decode_batch(&vec![0xff; 2].into()).is_err());

        // A check part rides after the files, and is charged as setup.
        let check = Part { phase: Phase::Setup, payload: vec![5; 20].into() };
        let bytes = encode_batch(&entries, Some(&check));
        let decoded = decode_batch(&bytes.clone().into()).unwrap();
        assert_eq!(decoded.files.len(), 2);
        assert_eq!(decoded.check.unwrap().payload, vec![5; 20]);
        let mut meter = WireMeter::default();
        meter.sent(Direction::ClientToServer, batch_split(&bytes.clone().into()), bytes.len());
        assert_eq!(meter.stats().c2s(Phase::Setup), 3 + 20, "the framing goes to the delta");
        let mut longer = bytes.clone();
        longer.push(0);
        assert_eq!(
            decode_batch(&longer.into()).err(),
            Some(SyncError::Desync("batch trailing bytes"))
        );
        let map = Part { phase: Phase::Map, payload: vec![5; 20].into() };
        assert_eq!(
            decode_batch(&encode_batch(&entries, Some(&map)).into()).err(),
            Some(SyncError::Desync("batch check part is not setup"))
        );
    }

    #[test]
    fn group_check_and_verdict_roundtrip() {
        let fps: Vec<Fingerprint> = (0..11u8).map(|i| file_fingerprint(&[i])).collect();
        let mut mine: Vec<Option<Fingerprint>> = vec![None; 11];
        for id in [0, 3, 10] {
            mine[id] = Some(fps[id]);
        }
        let provisional = settle(fps.iter().zip(mine.iter().copied()), 2);
        assert_eq!(provisional, [(0, fps[0]), (3, fps[3]), (10, fps[10])]);
        let check = GroupCheck::over(&provisional).unwrap();
        let payload = check.encode(11);
        assert_eq!(payload.len(), 2 + 16, "11 bits of bitmap, then the digest");
        assert_eq!(GroupCheck::decode(&payload, 11).as_ref(), Ok(&check));
        // The same bytes against a shorter roster set a bit past it.
        assert_eq!(
            GroupCheck::decode(&payload, 10),
            Err(SyncError::Desync("settled bitmap longer than the roster"))
        );
        assert_eq!(
            GroupCheck::decode(&payload[1..], 11),
            Err(SyncError::Desync("group check truncated"))
        );
        let none = GroupCheck { settled: Vec::new(), ..check };
        assert_eq!(
            GroupCheck::decode(&none.encode(11), 11),
            Err(SyncError::Desync("group check settles no file"))
        );
        assert_eq!(GroupCheck::over(&[]), None);

        let (pass, verdict) = GroupCheck::over(&provisional).unwrap().judge(&fps, 2);
        assert!(pass);
        assert_eq!(decode_verdict(&verdict.into(), 3, 14), Ok(None));
        // A local copy of file 3 that only shares the weak bytes fails
        // the group: the verdict carries every settled file's remainder.
        let mut wrong = fps[3];
        wrong.0[15] ^= 1;
        let (pass, verdict) =
            GroupCheck::over(&[(0, fps[0]), (3, wrong), (10, fps[10])]).unwrap().judge(&fps, 2);
        assert!(!pass);
        let salvage = decode_verdict(&verdict.clone().into(), 3, 14).unwrap().unwrap();
        let rest: Vec<u8> = [0, 3, 10].iter().flat_map(|&id| fps[id].0[2..].to_vec()).collect();
        assert_eq!(salvage.to_vec(), rest);
        assert_eq!(
            decode_verdict(&verdict.into(), 2, 14),
            Err(SyncError::Desync("salvage list does not match the settled set"))
        );
        assert_eq!(decode_verdict(&vec![2].into(), 2, 14), Err(SyncError::Desync("group verdict")));
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
                    pump_in_process(old, &new_refs, cfg, &Recorder::off(), runner).unwrap()
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
