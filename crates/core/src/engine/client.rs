//! The client side of the protocol: one [`ClientSession`] per changed
//! file (map descent, verification, delta decode), and the
//! [`CollectionClientMachine`] that settles the roster, runs the window
//! and batches every open session's round into one frame per exchange.
//! The schedule is the client's alone; [`super::codec`] documents the
//! wire formats both sides share.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use msync_hash::decomposable::{prefix_decompose_left, prefix_decompose_right, DecomposableDigest};
use msync_hash::{file_fingerprint, BitReader, BitWriter, Fingerprint, Md5};
use msync_protocol::{BufferPool, Direction, FrameBuf, Phase, RetryPolicy, TrafficStats};
use msync_trace::{EventKind, HistKind, Recorder};

use super::arq::ArqCore;
use super::codec::{
    decode_batch, decode_roster, decode_verdict, encode_batch, settle, split_remainder, Batch,
    GroupCheck, Part, Roster,
};
use super::{run_in_order, run_jobs, FnJob, Job, Machine, Output, Runner, SyncError, JOB_LOST};
use crate::collection::{CollectionOutcome, FileEntry, FileRef};
use crate::config::ProtocolConfig;
use crate::coverage::Coverage;
use crate::index::{first_positions, matches_at};
use crate::items::{self, global_hash_bits, Item, ItemKind, Side};
use crate::map::{FileMap, Segment};
use crate::stats::{LevelStats, SyncStats};
use crate::verify::{StepOutcome, VerifyState};

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(clippy::enum_variant_names)] // the states genuinely all await something
enum CState {
    AwaitSection,
    AwaitResults,
    AwaitFull,
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    item_idx: usize,
    old_pos: u64,
}

pub(crate) enum ClientAction {
    Reply(Vec<Part>),
    Done { data: Vec<u8>, fell_back: bool },
}

pub(crate) struct ClientSession<'a> {
    old: &'a [u8],
    cfg: &'a ProtocolConfig,
    coverage: Coverage,
    known_hashes: HashSet<(u64, u64)>,
    /// Transmitted or derived global hash prefixes, for decomposition.
    hash_store: HashMap<(u64, u64), u64>,
    pub(crate) map: FileMap,
    global_bits: u32,
    /// The server's file length, from the roster, and fingerprint,
    /// whole once the session's first reply has completed it.
    new_len: u64,
    pub(crate) new_fp: Fingerprint,
    items: Vec<Item>,
    candidates: Vec<Candidate>,
    verify: Option<VerifyState>,
    state: CState,
    pub(crate) levels: Vec<LevelStats>,
    pub(crate) delta_bytes: u64,
    /// Trace recorder (off unless the driver attached one) and the
    /// session's roster index for event attribution.
    pub(crate) recorder: Recorder,
    pub(crate) file_id: u64,
}

impl<'a> ClientSession<'a> {
    /// A session turning `old` into the server's file of `new_len` bytes
    /// and fingerprint `new_fp`.
    pub(crate) fn new(
        old: &'a [u8],
        cfg: &'a ProtocolConfig,
        new_len: u64,
        new_fp: Fingerprint,
    ) -> Self {
        Self {
            old,
            cfg,
            coverage: Coverage::new(),
            known_hashes: HashSet::new(),
            hash_store: HashMap::new(),
            map: FileMap::new(),
            global_bits: global_hash_bits(old.len() as u64, cfg.global_extra_bits),
            new_len,
            new_fp,
            items: Vec::new(),
            candidates: Vec::new(),
            verify: None,
            state: CState::AwaitSection,
            levels: Vec::new(),
            delta_bytes: 0,
            recorder: Recorder::off(),
            file_id: 0,
        }
    }

    /// The session's first message: the local length.
    pub(crate) fn request(&self) -> Part {
        let mut w = BitWriter::new();
        w.write_varint(self.old.len() as u64);
        Part { phase: Phase::Setup, payload: w.into_bytes().into() }
    }

    pub(crate) fn handle(&mut self, parts: Vec<Part>) -> Result<ClientAction, SyncError> {
        let mut reply: Vec<Part> = Vec::new();
        for part in parts {
            match self.state {
                CState::AwaitSection => {
                    let mut r = BitReader::new(&part.payload);
                    let tag = r.read_varint().map_err(|_| SyncError::Desync("section tag"))?;
                    if tag == 0 {
                        // Delta: the rest of the payload (byte-aligned —
                        // a zero varint is exactly one byte).
                        let delta = &part.payload[1..];
                        // The decoder trusts its own header up to 4 GiB;
                        // only the length the roster announced may pass.
                        if msync_compress::delta::announced_len(delta) != Ok(self.new_len) {
                            return Err(SyncError::Desync("delta length differs from roster"));
                        }
                        self.delta_bytes = delta.len() as u64;
                        self.recorder.record(EventKind::DeltaPhase {
                            file_id: self.file_id,
                            delta_bytes: self.delta_bytes,
                        });
                        let reference = self.map.reference_from_old(self.old);
                        let result = msync_compress::delta_decode(&reference, delta)
                            .ok()
                            .filter(|out| self.new_fp == file_fingerprint(out));
                        match result {
                            Some(data) => return Ok(ClientAction::Done { data, fell_back: false }),
                            None => {
                                // Residual weak-hash failure: request the
                                // whole file.
                                let mut w = BitWriter::new();
                                w.write_bit(true);
                                self.state = CState::AwaitFull;
                                return Ok(ClientAction::Reply(vec![Part {
                                    phase: Phase::Delta,
                                    payload: w.into_bytes().into(),
                                }]));
                            }
                        }
                    }
                    let level = u32::try_from(tag - 1)
                        .ok()
                        .filter(|&l| l < self.cfg.total_levels())
                        .ok_or(SyncError::Desync("round out of range"))?;
                    reply.push(self.process_round(level, &mut r)?);
                    self.state = if self.verify.as_ref().is_some_and(|v| !v.is_trivially_done()) {
                        CState::AwaitResults
                    } else {
                        // Zero candidates: the server advances without a
                        // results bitmap.
                        self.verify = None;
                        CState::AwaitSection
                    };
                }
                CState::AwaitResults => {
                    let mut r = BitReader::new(&part.payload);
                    let verify = self
                        .verify
                        .as_mut()
                        .ok_or(SyncError::Desync("client verify state missing"))?;
                    let results = (0..verify.groups().len())
                        .map(|_| r.read_bit().map_err(|_| SyncError::Desync("results bitmap")))
                        .collect::<Result<Vec<_>, _>>()?;
                    match verify.apply_results(&results) {
                        StepOutcome::NextBatch => reply.push(self.group_hashes(BitWriter::new())?),
                        StepOutcome::Done => {
                            let verify = self
                                .verify
                                .take()
                                .ok_or(SyncError::Desync("client verify state missing"))?;
                            let mut confirmed_count = 0u64;
                            for &cand in verify.confirmed() {
                                let c = self.candidates[cand];
                                let it = &self.items[c.item_idx];
                                self.coverage.insert(it.new_off, it.len);
                                self.map.insert(Segment {
                                    new_off: it.new_off,
                                    old_off: c.old_pos,
                                    len: it.len,
                                });
                                confirmed_count += 1;
                            }
                            if let Some(stats) = self.levels.last_mut() {
                                stats.confirmed += confirmed_count as usize;
                            }
                            self.recorder.record(EventKind::VerifyBatch {
                                file_id: self.file_id,
                                candidates: self.candidates.len() as u64,
                                confirmed: confirmed_count,
                            });
                            self.state = CState::AwaitSection;
                        }
                    }
                }
                CState::AwaitFull => {
                    if msync_compress::lz::announced_len(&part.payload) != Ok(self.new_len) {
                        return Err(SyncError::Desync("fallback length differs from roster"));
                    }
                    let data = msync_compress::decompress(&part.payload)
                        .map_err(|_| SyncError::Desync("fallback stream"))?;
                    return Ok(ClientAction::Done { data, fell_back: true });
                }
            }
        }
        Ok(ClientAction::Reply(reply))
    }

    /// Parse one level's hashes, find candidates, and compose the
    /// candidate bitmap + first verification batch.
    fn process_round(&mut self, level: u32, r: &mut BitReader<'_>) -> Result<Part, SyncError> {
        let round_t0 = self.recorder.now_micros();
        let d = self.cfg.block_size_at(level) as u64;
        let items =
            items::enumerate(self.cfg, &self.coverage, &self.known_hashes, self.new_len, level);
        if items.is_empty() {
            return Err(SyncError::Desync("server sent hashes for an empty round"));
        }
        items::extend_known_hashes(&mut self.known_hashes, &items);

        let mut stats =
            LevelStats { block_size: d as usize, items: items.len(), ..LevelStats::default() };

        // Pass 1: every item's hash value, read or derived in wire order.
        // Probes resolve on the spot (one predicted position each);
        // global values wait for pass 2.
        let mut found: Vec<Option<u64>> = Vec::with_capacity(items.len());
        let mut globals: Vec<(usize, u64)> = Vec::new();
        for (i, it) in items.iter().enumerate() {
            found.push(match it.kind {
                ItemKind::Cont { side, anchor_edge } => {
                    stats.cont_items += 1;
                    let value = r
                        .read_bits(self.cfg.cont_bits)
                        .map_err(|_| SyncError::Desync("cont hash"))?;
                    self.probe_position(side, anchor_edge, it.len).filter(|&pos| {
                        matches_at(self.old, pos as i64, it.len as usize, self.cfg.cont_bits, value)
                    })
                }
                ItemKind::Global { suppressed } => {
                    let value = match suppressed {
                        None => Some(
                            r.read_bits(self.global_bits)
                                .map_err(|_| SyncError::Desync("global hash"))?,
                        ),
                        Some(der) => {
                            stats.suppressed += 1;
                            self.derive_hash(it, der)
                        }
                    };
                    if let Some(v) = value {
                        self.hash_store.insert((it.new_off, it.len), v);
                        globals.push((i, v));
                    }
                    None
                }
            });
        }

        // Pass 2: one rolling scan of `f_old` per distinct global window
        // length — the level's block size and the tail block's odd one.
        let mut windows: Vec<u64> = globals.iter().map(|&(i, _)| items[i].len).collect();
        windows.sort_unstable();
        windows.dedup();
        for window in windows {
            let (idx, targets): (Vec<usize>, Vec<u64>) =
                globals.iter().filter(|&&(i, _)| items[i].len == window).copied().unzip();
            let positions = first_positions(self.old, window as usize, self.global_bits, &targets);
            for (i, pos) in idx.into_iter().zip(positions) {
                found[i] = pos;
            }
        }

        let mut candidates = Vec::new();
        let mut bitmap = BitWriter::new();
        for (i, pos) in found.into_iter().enumerate() {
            bitmap.write_bit(pos.is_some());
            if let Some(old_pos) = pos {
                candidates.push(Candidate { item_idx: i, old_pos });
            }
        }
        stats.candidates = candidates.len();
        if self.recorder.is_enabled() {
            stats.wall_us = self.recorder.now_micros().saturating_sub(round_t0);
            self.recorder.observe(HistKind::RoundDuration, stats.wall_us);
            self.recorder.record(EventKind::MapRound {
                file_id: self.file_id,
                block_size: d,
                items: stats.items as u64,
                candidates: stats.candidates as u64,
            });
        }
        self.levels.push(stats);
        self.items = items;
        self.verify = Some(VerifyState::new(&self.cfg.verify, candidates.len()));
        self.candidates = candidates;

        // The bitmap and the first verification batch in one part.
        self.group_hashes(bitmap)
    }

    /// The current verification batch's group hashes after what `w`
    /// holds, as one map part.
    fn group_hashes(&self, mut w: BitWriter) -> Result<Part, SyncError> {
        let verify =
            self.verify.as_ref().ok_or(SyncError::Desync("client verify state missing"))?;
        let bits = if verify.is_trivially_done() { 0 } else { verify.batch_config().bits };
        for group in verify.groups() {
            let mut md5 = Md5::new();
            for &cand in group {
                let c = self.candidates[cand];
                let it = &self.items[c.item_idx];
                md5.update(&self.old[c.old_pos as usize..(c.old_pos + it.len) as usize]);
            }
            w.write_bits(md5.finish_bits(bits), bits);
        }
        Ok(Part { phase: Phase::Map, payload: w.into_bytes().into() })
    }

    /// Predicted old-file position of a continuation probe.
    fn probe_position(&self, side: Side, anchor_edge: u64, len: u64) -> Option<u64> {
        match side {
            Side::Left => {
                let seg = self.map.segment_at(anchor_edge)?;
                let old_at_edge = seg.old_off + (anchor_edge - seg.new_off);
                old_at_edge.checked_sub(len)
            }
            Side::Right => {
                let seg = self.map.segment_at(anchor_edge.checked_sub(1)?)?;
                let old_at_edge = seg.old_off + (anchor_edge - seg.new_off);
                (old_at_edge + len <= self.old.len() as u64).then_some(old_at_edge)
            }
        }
    }

    /// Derive a suppressed sibling hash from the parent's and sibling's
    /// prefixes (paper §5.5). Returns `None` when bookkeeping is missing —
    /// which would be a desync, surfaced as a lost candidate only.
    fn derive_hash(&self, it: &Item, der: crate::items::Derivation) -> Option<u64> {
        let parent = *self.hash_store.get(&(der.parent_off, it.len * 2))?;
        let sibling = match self.hash_store.get(&(der.sibling_off, it.len)) {
            Some(&v) => v,
            None => {
                // Sibling bytes fully known: compute its prefix directly.
                let bytes = self.map.bytes_for_new_range(self.old, der.sibling_off, it.len)?;
                DecomposableDigest::of(&bytes).prefix(self.global_bits)
            }
        };
        Some(if der.is_right {
            prefix_decompose_right(parent, sibling, self.global_bits, it.len)
        } else {
            prefix_decompose_left(parent, sibling, self.global_bits, it.len)
        })
    }
}

/// One file the pipelined client has fully completed, surfaced through
/// [`CollectionClientMachine::drain_completed`] so a durability hook
/// can apply it atomically while the session is still running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedFile {
    /// Roster index (the server's sorted-name order).
    pub file_id: usize,
    /// Collection-relative name.
    pub name: String,
    /// Final file content: the one allocation the machine also keeps
    /// for [`CollectionClientMachine::finish`], which takes it back
    /// without a copy once every `CompletedFile` has been dropped.
    pub data: Arc<Vec<u8>>,
    /// Whether the session fell back to a full transfer.
    pub fell_back: bool,
    /// Settled by the roster and its group check rather than synced:
    /// the content equals the client's local copy, so a sink writing in
    /// place need not rewrite it.
    pub unchanged: bool,
    /// Scheduler round it completed in (0 = settled by the roster).
    pub round: u64,
}

/// Per-file client state while the pipeline runs.
struct Slot<'a> {
    /// The open session: `None` until admitted, and again once done —
    /// a finished file keeps only its [`SyncStats`].
    session: Option<ClientSession<'a>>,
    old_data: &'a [u8],
    existed: bool,
    /// The server's length and fingerprint. The roster gives the
    /// fingerprint's weak bytes; the rest arrive with the session's
    /// first reply, or with a failed group verdict.
    new_len: u64,
    new_fp: Fingerprint,
    /// Whether `new_fp` is whole.
    fp_whole: bool,
    /// Payload bytes by phase as this file's parts carried them; the
    /// session's levels and byte counts join them when it finishes.
    stats: SyncStats,
    /// Final content and the fell-back flag. An `Arc<Vec<u8>>`, not an
    /// `Arc<[u8]>`: `finish` unwraps it into the `Vec` the outcome owns.
    #[allow(clippy::rc_buffer)]
    done: Option<(Arc<Vec<u8>>, bool)>,
    /// Content bytes this session holds of the window budget: 0 until
    /// admitted, and once done.
    charged: u64,
    /// Settled unchanged by the roster and its group check (no
    /// session).
    unchanged: bool,
    /// Recorder timestamp at admission (0 when tracing is off).
    t0_us: u64,
}

impl Slot<'_> {
    /// What the session counts against the window budget: the larger of
    /// the two copies (a delta is decoded against one into the other).
    fn content_bytes(&self) -> u64 {
        (self.old_data.len() as u64).max(self.new_len).max(1)
    }
}

/// Charge `parts`' payload bytes to a file's `stats`, by phase.
fn tally(stats: &mut SyncStats, dir: Direction, parts: &[Part]) {
    parts.iter().for_each(|p| stats.traffic.record(dir, p.phase, p.payload.len() as u64));
}

/// One file's step on the client: its session, taken out of the slot,
/// over the server's message for it.
struct ClientJob<'a> {
    id: usize,
    session: ClientSession<'a>,
    parts: Vec<Part>,
    /// The slot's admission timestamp, for the session-duration sample.
    t0_us: u64,
    result: Result<ClientAction, SyncError>,
}

impl Job for ClientJob<'_> {
    fn run(&mut self) -> bool {
        self.result = self.session.handle(std::mem::take(&mut self.parts));
        // Recorded here, right after the session's own events, so a
        // traced (one-thread) run keeps each file's events together.
        let rec = &self.session.recorder;
        if let (Ok(ClientAction::Done { fell_back, .. }), true) = (&self.result, rec.is_enabled()) {
            rec.observe(HistKind::SessionDuration, rec.now_micros().saturating_sub(self.t0_us));
            rec.record(EventKind::SessionEnd {
                file_id: self.id as u64,
                ok: true,
                fell_back: *fell_back,
            });
        }
        self.result.is_ok()
    }
}

enum ClientState {
    AwaitRoster,
    AwaitBatch,
    Finished,
}

/// The client half of a pipelined collection sync as a sans-IO machine.
pub struct CollectionClientMachine<'a> {
    old: Vec<FileRef<'a>>,
    cfg: &'a ProtocolConfig,
    /// Cap on open sessions (`usize::MAX`: the byte budget alone).
    depth: usize,
    /// Cap on the content bytes of sessions in the window.
    budget: u64,
    rec: Recorder,
    arq: ArqCore,
    state: ClientState,
    server_names: Vec<String>,
    slots: Vec<Slot<'a>>,
    /// Fingerprint bytes per file the roster carries.
    weak: usize,
    /// Files settled on their weak bytes alone, ascending, with their
    /// full local fingerprints: complete once the verdict passes.
    provisional: Vec<(usize, Fingerprint)>,
    /// The group check over `provisional`, until the first batch takes
    /// it; then whether that batch's reply owes its verdict.
    group: Option<Part>,
    awaiting_verdict: bool,
    outbox: Vec<(usize, Vec<Part>)>,
    expected: HashSet<usize>,
    /// Files to open, in admission order: roster order, then any file a
    /// failed verdict reopened.
    queue: VecDeque<usize>,
    admitted: usize,
    /// Open sessions.
    in_flight: usize,
    /// Sum of [`Slot::charged`].
    in_flight_bytes: u64,
    done_count: usize,
    deleted: usize,
    /// Completed files awaiting [`Self::drain_completed`].
    pending_completed: Vec<CompletedFile>,
    /// Scheduler round counter (0 = the roster).
    round: u64,
    runner: Runner,
}

impl<'a> CollectionClientMachine<'a> {
    /// Build the machine over the client's files `old` (a slice of
    /// entries, or [`FileRef`]s borrowed from wherever they live) and
    /// queue the opener. `now_us` is the caller's clock reading, the
    /// origin for the first ARQ deadline.
    ///
    /// # Errors
    /// [`SyncError::Config`] when `cfg` fails validation.
    pub fn new<F: Into<FileRef<'a>>>(
        old: impl IntoIterator<Item = F>,
        cfg: &'a ProtocolConfig,
        depth: usize,
        retry: RetryPolicy,
        rec: Recorder,
        now_us: u64,
    ) -> Result<Self, SyncError> {
        let old: Vec<FileRef<'a>> = old.into_iter().map(Into::into).collect();
        cfg.validate().map_err(SyncError::Config)?;
        let mut arq = ArqCore::client(retry, rec.clone());
        arq.send_message(vec![Part { phase: Phase::Setup, payload: Vec::new().into() }], now_us);
        arq.begin_await(now_us);
        Ok(Self {
            old,
            cfg,
            depth: depth.max(1),
            budget: WINDOW_BUDGET_BYTES,
            rec,
            arq,
            state: ClientState::AwaitRoster,
            server_names: Vec::new(),
            slots: Vec::new(),
            weak: 0,
            provisional: Vec::new(),
            group: None,
            awaiting_verdict: false,
            outbox: Vec::new(),
            expected: HashSet::new(),
            queue: VecDeque::new(),
            admitted: 0,
            in_flight: 0,
            in_flight_bytes: 0,
            done_count: 0,
            deleted: 0,
            pending_completed: Vec::new(),
            round: 0,
            runner: run_in_order,
        })
    }

    /// Draw encoded-frame buffers for this session from `pool`.
    pub fn set_pool(&mut self, pool: BufferPool) {
        self.arq.set_pool(pool);
    }

    /// Run each batch's per-file session work — and the roster's
    /// fingerprint checks — through `runner`.
    pub(crate) fn set_runner(&mut self, runner: Runner) {
        self.runner = runner;
    }

    /// The machine under a window budget small enough for a test
    /// collection to exceed (nothing is admitted before the roster
    /// reply, so setting it after `new` is setting it at construction).
    #[cfg(test)]
    pub(crate) fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// The final content the machine keeps for file `id`, once complete.
    #[cfg(test)]
    pub(crate) fn kept(&self, id: usize) -> Option<&Arc<Vec<u8>>> {
        self.slots[id].done.as_ref().map(|(data, _)| data)
    }

    /// Files completed since the last call, in completion order. The
    /// driver's durability hook applies them while the session keeps
    /// running; unchanged files appear here too, at round 0, once their
    /// group verdict has passed.
    pub fn drain_completed(&mut self) -> Vec<CompletedFile> {
        std::mem::take(&mut self.pending_completed)
    }

    /// Whether a session of `charge` content bytes fits the window: the
    /// budget holds, or the window is empty (a file larger than the
    /// whole budget runs alone).
    fn fits(&self, charge: u64) -> bool {
        self.in_flight_bytes == 0 || self.in_flight_bytes.saturating_add(charge) <= self.budget
    }

    /// Fill the window from the queue while the byte budget (and the
    /// `depth` cap on open sessions) has room.
    fn admit(&mut self) {
        while self.in_flight < self.depth {
            let Some(&id) = self.queue.front() else { return };
            let charge = self.slots[id].content_bytes();
            if !self.fits(charge) {
                return;
            }
            self.queue.pop_front();
            self.admitted += 1;
            self.in_flight += 1;
            self.in_flight_bytes += charge;
            self.rec.record(EventKind::SessionStart { file_id: id as u64 });
            let slot = &mut self.slots[id];
            slot.charged = charge;
            slot.t0_us = self.rec.now_micros();
            let mut session =
                ClientSession::new(slot.old_data, self.cfg, slot.new_len, slot.new_fp);
            session.recorder = self.rec.clone();
            session.file_id = id as u64;
            let parts = vec![session.request()];
            slot.session = Some(session);
            tally(&mut slot.stats, Direction::ClientToServer, &parts);
            self.outbox.push((id, parts));
        }
    }

    /// Flush the outbox, and the group check if still unsent, as one
    /// batch message, or finish the session.
    fn flush(&mut self, now_us: u64) {
        let group = self.group.take();
        if self.outbox.is_empty() && group.is_none() {
            self.state = ClientState::Finished;
            return;
        }
        self.awaiting_verdict = group.is_some();
        let batch = encode_batch(&self.outbox, group.as_ref());
        self.expected = self.outbox.iter().map(|(id, _)| *id).collect();
        self.outbox.clear();
        self.round += 1;
        self.arq.send_message(vec![Part { phase: Phase::Map, payload: batch.into() }], now_us);
        self.arq.begin_await(now_us);
        self.state = ClientState::AwaitBatch;
    }

    /// Take the server's roster: one slot per served file, every local
    /// copy that matches its weak fingerprint settled provisionally,
    /// every local name the roster lacks counted deleted.
    fn on_roster(&mut self, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let roster_part = parts.first().ok_or(SyncError::Desync("missing server roster"))?;
        let Roster { files: roster, weak } = decode_roster(&roster_part.payload)?;
        self.weak = weak;
        let old_by_name: HashMap<&str, &'a [u8]> =
            self.old.iter().map(|f| (f.name, f.data)).collect();
        self.deleted = self
            .old
            .iter()
            .filter(|f| roster.binary_search_by(|e| e.name.as_str().cmp(f.name)).is_err())
            .count();
        self.slots = roster
            .iter()
            .map(|e| {
                let old_data = old_by_name.get(e.name.as_str()).copied();
                Slot {
                    session: None,
                    old_data: old_data.unwrap_or_default(),
                    existed: old_data.is_some(),
                    new_len: e.len,
                    new_fp: e.fp,
                    fp_whole: false,
                    stats: SyncStats::default(),
                    done: None,
                    charged: 0,
                    unchanged: false,
                    t0_us: 0,
                }
            })
            .collect();
        self.server_names = roster.into_iter().map(|e| e.name).collect();
        self.settle_unchanged();
        self.advance(now_us);
        Ok(())
    }

    /// Fingerprint every local copy of the served length, through the
    /// runner, and settle each one whose fingerprint starts with the
    /// roster's weak bytes provisionally, under one group check; queue
    /// every other file to open.
    fn settle_unchanged(&mut self) {
        let mut local: Vec<Option<Fingerprint>> = vec![None; self.slots.len()];
        let mut jobs: Vec<_> = self
            .slots
            .iter()
            .zip(&mut local)
            .filter(|(slot, _)| slot.existed && slot.old_data.len() as u64 == slot.new_len)
            .map(|(slot, fp)| {
                let data = slot.old_data;
                FnJob(move || *fp = Some(file_fingerprint(data)))
            })
            .collect();
        run_jobs(self.runner, &mut jobs);
        drop(jobs);
        self.provisional = settle(self.slots.iter().map(|slot| &slot.new_fp).zip(local), self.weak);
        let mut provisional = self.provisional.iter().map(|&(id, _)| id).peekable();
        for id in 0..self.slots.len() {
            if provisional.next_if_eq(&id).is_none() {
                self.queue.push_back(id);
            }
        }
        self.group = GroupCheck::over(&self.provisional).map(|check| Part {
            phase: Phase::Setup,
            payload: check.encode(self.slots.len()).into(),
        });
    }

    /// Apply the group verdict: on a pass (`salvage` is `None`) every
    /// provisional file is unchanged; on a fail each one learns the rest
    /// of its fingerprint, and only those whose local copy still matches
    /// are — the others join the queue as changed files.
    fn on_verdict(&mut self, mut salvage: Option<FrameBuf>) -> Result<(), SyncError> {
        for (id, local) in std::mem::take(&mut self.provisional) {
            if let Some(rest) = &mut salvage {
                let slot = &mut self.slots[id];
                *rest = split_remainder(&mut slot.new_fp, self.weak, rest)
                    .ok_or(SyncError::Desync("salvage list does not match the settled set"))?;
                slot.fp_whole = true;
                if slot.new_fp != local {
                    self.queue.push_back(id);
                    continue;
                }
            }
            self.complete_unchanged(id);
        }
        Ok(())
    }

    /// Complete file `id` as the client's own copy, at round 0.
    fn complete_unchanged(&mut self, id: usize) {
        let slot = &mut self.slots[id];
        let data = Arc::new(slot.old_data.to_vec());
        slot.done = Some((Arc::clone(&data), false));
        slot.unchanged = true;
        self.done_count += 1;
        self.rec.record(EventKind::CacheHit { file_id: id as u64 });
        self.pending_completed.push(CompletedFile {
            file_id: id,
            name: self.server_names[id].clone(),
            data,
            fell_back: false,
            unchanged: true,
            round: 0,
        });
    }

    /// Refill the window, report it, and send the next batch.
    fn advance(&mut self, now_us: u64) {
        self.admit();
        if self.rec.is_enabled() && !self.slots.is_empty() {
            self.rec.record(EventKind::WindowAdvance {
                in_flight: self.in_flight as u64,
                in_flight_bytes: self.in_flight_bytes,
                admitted: self.admitted as u64,
                done: self.done_count as u64,
            });
        }
        self.flush(now_us);
    }

    /// A batch reply in three steps: check it and take out the sessions
    /// it answers, run one job per file, commit the results in wire
    /// order (the first failure in that order wins). The group verdict,
    /// on the reply to the batch that carried the check, is checked
    /// first and applied last.
    fn on_batch(&mut self, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty batch reply"))?;
        let Batch { files, check } = decode_batch(&part.payload)?;
        let verdict = match (std::mem::take(&mut self.awaiting_verdict), check) {
            (true, Some(check)) => {
                Some(decode_verdict(&check.payload, self.provisional.len(), self.weak)?)
            }
            (true, None) => return Err(SyncError::Desync("reply lacks the group verdict")),
            (false, Some(_)) => return Err(SyncError::Desync("group verdict without a check")),
            (false, None) => None,
        };
        let mut jobs = self.take_jobs(files)?;
        run_jobs(self.runner, &mut jobs);
        for job in jobs {
            self.commit(job)?;
        }
        if let Some(salvage) = verdict {
            self.on_verdict(salvage)?;
        }
        self.advance(now_us);
        Ok(())
    }

    /// Refuse a reply that does not answer every file in flight exactly
    /// once, or a session's first reply without the rest of its
    /// fingerprint — before any job runs — and take each answered
    /// session out of its slot.
    fn take_jobs(
        &mut self,
        batch: Vec<(usize, Vec<Part>)>,
    ) -> Result<Vec<ClientJob<'a>>, SyncError> {
        for (id, _) in &batch {
            if !self.expected.remove(id) {
                return Err(SyncError::Desync("batch reply for a file not in flight"));
            }
        }
        if !self.expected.is_empty() {
            return Err(SyncError::Desync("batch reply missing an in-flight file"));
        }
        batch
            .into_iter()
            .map(|(id, mut parts)| {
                let slot =
                    self.slots.get_mut(id).ok_or(SyncError::Desync("batch id out of range"))?;
                tally(&mut slot.stats, Direction::ServerToClient, &parts);
                let mut session =
                    slot.session.take().ok_or(SyncError::Desync("batch id not open"))?;
                if !slot.fp_whole {
                    let lacks = SyncError::Desync("first reply lacks the fingerprint remainder");
                    let first = parts.first_mut().ok_or(lacks.clone())?;
                    first.payload = split_remainder(&mut slot.new_fp, self.weak, &first.payload)
                        .ok_or(lacks)?;
                    slot.fp_whole = true;
                    session.new_fp = slot.new_fp;
                }
                Ok(ClientJob { id, session, parts, t0_us: slot.t0_us, result: Err(JOB_LOST) })
            })
            .collect()
    }

    /// Apply one file's step: close a finished session, or queue its
    /// reply.
    fn commit(&mut self, job: ClientJob<'a>) -> Result<(), SyncError> {
        let ClientJob { id, session, result, .. } = job;
        let slot = &mut self.slots[id];
        match result? {
            ClientAction::Done { data, fell_back } => {
                let data = Arc::new(data);
                self.pending_completed.push(CompletedFile {
                    file_id: id,
                    name: self.server_names[id].clone(),
                    data: Arc::clone(&data),
                    fell_back,
                    unchanged: false,
                    round: self.round,
                });
                slot.done = Some((data, fell_back));
                // Close the session, keeping only its statistics.
                slot.stats.levels = session.levels;
                slot.stats.known_bytes = session.map.known_bytes();
                slot.stats.delta_bytes = session.delta_bytes;
                self.in_flight_bytes -= std::mem::take(&mut slot.charged);
                self.in_flight -= 1;
                self.done_count += 1;
            }
            ClientAction::Reply(cparts) => {
                if cparts.is_empty() {
                    return Err(SyncError::Desync("session yielded no reply"));
                }
                tally(&mut slot.stats, Direction::ClientToServer, &cparts);
                slot.session = Some(session);
                self.outbox.push((id, cparts));
            }
        }
        Ok(())
    }

    /// Assemble the outcome in roster (sorted-name) order. `traffic` is
    /// the transport's wire-level accounting.
    ///
    /// # Errors
    /// [`SyncError::Desync`] if the machine never finished.
    pub fn finish(self, traffic: TrafficStats) -> Result<CollectionOutcome, SyncError> {
        if !matches!(self.state, ClientState::Finished) {
            return Err(SyncError::Desync("collection machine not finished"));
        }
        // Whatever the caller never drained would keep every
        // allocation shared and force the copy below.
        drop(self.pending_completed);
        let n = self.server_names.len();
        let mut files = Vec::with_capacity(n);
        let mut per_file = Vec::with_capacity(n);
        let mut unchanged = 0usize;
        let mut created = 0usize;
        let mut fell_back = 0usize;
        for (name, slot) in self.server_names.iter().zip(self.slots) {
            let (data, fb) = slot.done.ok_or(SyncError::Desync("file never completed"))?;
            created += usize::from(!slot.existed);
            fell_back += usize::from(fb);
            unchanged += usize::from(slot.unchanged);
            per_file.push((name.clone(), slot.stats));
            // Sole owner unless a sink kept its `CompletedFile`.
            let data = Arc::try_unwrap(data).unwrap_or_else(|shared| shared.as_ref().clone());
            files.push(FileEntry { name: name.clone(), data });
        }
        Ok(CollectionOutcome {
            files,
            traffic,
            per_file,
            unchanged,
            created,
            deleted: self.deleted,
            fell_back,
        })
    }
}

impl Machine for CollectionClientMachine<'_> {
    type Ctx = ();

    fn on_frame(&mut self, _ctx: &(), bytes: &FrameBuf, now_us: u64) -> Result<(), SyncError> {
        if matches!(self.state, ClientState::Finished) {
            return Ok(());
        }
        let Some(parts) = self.arq.on_frame(bytes, now_us)? else {
            return Ok(());
        };
        match self.state {
            ClientState::AwaitRoster => self.on_roster(&parts, now_us),
            ClientState::AwaitBatch => self.on_batch(&parts, now_us),
            ClientState::Finished => Ok(()),
        }
    }

    fn on_corrupt_frame(&mut self, now_us: u64) -> Result<(), SyncError> {
        if matches!(self.state, ClientState::Finished) {
            return Ok(());
        }
        self.arq.on_corrupt(now_us)
    }

    fn on_disconnect(&mut self) -> Result<(), SyncError> {
        if matches!(self.state, ClientState::Finished) {
            return Ok(());
        }
        Err(SyncError::PeerGone)
    }

    fn poll_output(&mut self, now_us: u64) -> Result<Output, SyncError> {
        loop {
            if let Some(effect) = self.arq.next_effect() {
                return Ok(effect);
            }
            if matches!(self.state, ClientState::Finished) {
                return Ok(Output::Done);
            }
            self.arq.poll_deadline(now_us)?;
            if !self.arq.has_effects() {
                return Ok(Output::Wait { deadline_us: self.arq.deadline_us() });
            }
        }
    }
}

/// A lying server cannot make the client allocate past the length its
/// roster announced.
#[cfg(test)]
mod hostile_server_tests {
    use super::*;

    /// A delta section (tag 0) whose stream header announces `len`.
    fn delta_part(len: u64) -> Part {
        let mut w = BitWriter::new();
        w.write_varint(0);
        w.write_varint(len);
        w.write_bytes(&[0xA5; 200]);
        Part { phase: Phase::Delta, payload: w.into_bytes().into() }
    }

    #[test]
    fn delta_announcing_more_than_the_setup_is_a_desync() {
        let cfg = ProtocolConfig::default();
        let mut client = ClientSession::new(b"old bytes", &cfg, 1000, Fingerprint([0; 16]));
        match client.handle(vec![delta_part(1 << 32)]) {
            Err(SyncError::Desync(what)) => assert!(what.contains("delta length"), "{what}"),
            other => panic!("expected a typed desync, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn fallback_announcing_more_than_the_setup_is_a_desync() {
        let cfg = ProtocolConfig::default();
        let mut client = ClientSession::new(b"old bytes", &cfg, 1000, Fingerprint([0; 16]));
        // A delta of the right length that does not decode: the client
        // asks for the whole file.
        assert!(matches!(client.handle(vec![delta_part(1000)]), Ok(ClientAction::Reply(_))));
        let mut w = BitWriter::new();
        w.write_varint(1 << 32);
        w.write_bytes(&[0xA5; 200]);
        let fallback = Part { phase: Phase::Delta, payload: w.into_bytes().into() };
        match client.handle(vec![fallback]) {
            Err(SyncError::Desync(what)) => assert!(what.contains("fallback length"), "{what}"),
            other => panic!("expected a typed desync, got {:?}", other.map(|_| ())),
        }
    }
}
