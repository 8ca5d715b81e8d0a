//! The multi-round synchronization session (paper §5.6).
//!
//! One session synchronizes one changed file. Its length and strong
//! fingerprint on both sides were settled by the collection roster
//! ([`crate::pipeline`]) before it opened, so the exchange of Figure 5.2
//! of the paper starts at the first block size:
//!
//! ```text
//! client                                server
//!   │ ── request: old_len ───────────────────▶ │
//!   │ ◀─ hashes for the first block size ──── │   round 0
//!   │ ── candidate bitmap + verify batch 1 ─▶ │
//!   │ ◀─ batch-1 results [+ batch wait]       │
//!   │      ⋮  (optional extra verify batches) │
//!   │ ◀─ final results + next round hashes ── │   round 1 …
//!   │      ⋮                                  │
//!   │ ◀─ final results + delta ────────────── │   delta phase
//! ```
//!
//! Result bitmaps ride on the next server message ("this bitmap is
//! included into the first roundtrip of the next round"), so a round with
//! a single verification batch costs exactly one roundtrip.
//!
//! Everything both endpoints must agree on — active blocks, probe lists,
//! hash suppressions, verification groups — is recomputed independently
//! from shared state ([`Coverage`], the known-hash set, results bitmaps),
//! so messages carry only hash bits and bitmaps, never structure.

use crate::collection::FileRef;
use crate::config::ProtocolConfig;
use crate::coverage::Coverage;
use crate::index::{first_positions, matches_at};
use crate::items::{self, global_hash_bits, Item, ItemKind, Side};
use crate::map::{FileMap, Segment};
use crate::pipeline::sync_in_process;
use crate::snapshot::SessionCache;
use crate::stats::{LevelStats, SyncStats};
use crate::verify::{StepOutcome, VerifyState};
use msync_hash::decomposable::{prefix_decompose_left, prefix_decompose_right, DecomposableDigest};
use msync_hash::{file_fingerprint, BitReader, BitWriter, Fingerprint, Md5};
use msync_protocol::{FrameBuf, Phase};
use msync_trace::{EventKind, HistKind, Recorder};
use std::collections::{HashMap, HashSet};

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

/// One logical message part with its accounting phase. The payload is
/// a refcounted [`FrameBuf`]: freshly composed parts own their bytes,
/// parts parsed from a received frame are zero-copy views of it.
#[derive(Debug)]
pub(crate) struct Part {
    pub(crate) phase: Phase,
    pub(crate) payload: FrameBuf,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SState {
    AwaitCandidates,
    AwaitBatch,
    AwaitMaybeResend,
    Done,
}

/// The server's protocol state for one file. The served file's bytes
/// are *not* owned here: every entry point takes them as a parameter,
/// so a daemon can share one in-memory collection read-only across many
/// concurrent sessions. The caller must pass the same bytes on every
/// call.
pub(crate) struct ServerSession {
    cfg: ProtocolConfig,
    coverage: Coverage,
    known_hashes: HashSet<(u64, u64)>,
    global_bits: u32,
    /// The next level to enumerate.
    level: u32,
    items: Vec<Item>,
    /// Item indices the client flagged as candidates, in item order.
    candidates: Vec<usize>,
    verify: Option<VerifyState>,
    /// Cross-session hash-cache handle; `None` outside a daemon (each
    /// hash is then computed directly, exactly as before the cache).
    cache: Option<SessionCache>,
    /// Full-width digests of the previous partition round's blocks,
    /// kept so this round's halves can be derived arithmetically
    /// (parent minus sibling — the decomposable property) instead of
    /// rescanned. Replaced wholesale each partition round: one level
    /// of parents is all derivation ever needs.
    level_digests: HashMap<(u64, u64), DecomposableDigest>,
    pub(crate) state: SState,
}

impl ServerSession {
    pub(crate) fn new(cfg: ProtocolConfig) -> Self {
        Self {
            cfg,
            coverage: Coverage::new(),
            known_hashes: HashSet::new(),
            global_bits: 0,
            level: 0,
            items: Vec::new(),
            candidates: Vec::new(),
            verify: None,
            cache: None,
            level_digests: HashMap::new(),
            state: SState::Done,
        }
    }

    /// A session whose map-phase hash work (block digests, verification
    /// hashes) is memoized in a shared [`SessionCache`].
    pub(crate) fn with_cache(cfg: ProtocolConfig, cache: SessionCache) -> Self {
        let mut s = Self::new(cfg);
        s.cache = Some(cache);
        s
    }

    /// Open the session on the client's request — its local length,
    /// which sizes the global hashes — and answer with the first round.
    pub(crate) fn on_request(
        &mut self,
        new: &[u8],
        payload: &[u8],
    ) -> Result<Vec<Part>, SyncError> {
        let mut r = BitReader::new(payload);
        let old_len = r.read_varint().map_err(|_| SyncError::Desync("request len"))?;
        if r.remaining_bits() > 0 {
            return Err(SyncError::Desync("request trailing bytes"));
        }
        self.global_bits = global_hash_bits(old_len, self.cfg.global_extra_bits);
        Ok(self.advance(new))
    }

    /// Move to the next level with items, or the delta phase, and emit
    /// the corresponding part.
    fn advance(&mut self, new: &[u8]) -> Vec<Part> {
        while self.level < self.cfg.total_levels() {
            let level = self.level;
            self.level += 1;
            let items = items::enumerate(
                &self.cfg,
                &self.coverage,
                &self.known_hashes,
                new.len() as u64,
                level,
            );
            if items.is_empty() {
                continue;
            }
            items::extend_known_hashes(&mut self.known_hashes, &items);
            let mut w = BitWriter::new();
            w.write_varint(u64::from(level) + 1);
            self.write_round_hashes(new, &items, &mut w);
            self.items = items;
            self.state = SState::AwaitCandidates;
            return vec![Part { phase: Phase::Map, payload: w.into_bytes().into() }];
        }
        // Delta phase: reference = known areas in new-file order.
        let mut reference = Vec::with_capacity(self.coverage.covered_bytes() as usize);
        for &(s, e) in self.coverage.intervals() {
            reference.extend_from_slice(&new[s as usize..e as usize]);
        }
        let delta = msync_compress::delta_encode(&reference, new);
        let mut w = BitWriter::new();
        w.write_varint(0);
        let mut payload = w.into_bytes();
        payload.extend_from_slice(&delta);
        self.state = SState::AwaitMaybeResend;
        // Only a fallback request can follow, and it needs none of the
        // map phase: a pipelined server holds many such sessions at once.
        (self.coverage, self.known_hashes, self.items, self.candidates, self.level_digests) =
            Default::default();
        vec![Part { phase: Phase::Delta, payload: payload.into() }]
    }

    /// Write one round's hash bits, batching digest work across the
    /// round's sibling ranges instead of rescanning every range: a
    /// partition block whose parent was digested last round and whose
    /// sibling is already in hand this round is derived arithmetically
    /// rather than scanned, so each round costs at most one pass over
    /// the round's uncovered slice — and usually half of one.
    /// Suppressed siblings (never transmitted) are derived the same way
    /// at zero scan cost, so the *next* round finds their digests as
    /// parents. Derivation is exact mod 2³², so the wire bits are
    /// byte-identical to the scanned ones.
    fn write_round_hashes(&mut self, new: &[u8], items: &[Item], w: &mut BitWriter) {
        let mut level: HashMap<(u64, u64), DecomposableDigest> = HashMap::new();
        let mut pending: Vec<&Item> = Vec::new();
        for it in items {
            let bits = it.wire_bits(&self.cfg, self.global_bits);
            if bits == 0 {
                if matches!(it.kind, ItemKind::Global { .. }) {
                    pending.push(it);
                }
                continue;
            }
            let digest = if matches!(it.kind, ItemKind::Cont { .. }) {
                // Probes sit at arbitrary offsets — never on the block
                // grid, so they neither derive nor serve as parents.
                self.scan_digest(new, it.new_off, it.len)
            } else {
                let d = self.block_digest(new, &level, it.new_off, it.len);
                level.insert((it.new_off, it.len), d);
                d
            };
            w.write_bits(digest.prefix(bits), bits);
        }
        // Suppressed siblings: with the transmitted half and the parent
        // both in hand, their digests cost nothing now and would cost a
        // full scan next round.
        for it in pending {
            if let Some(d) = self.derive_digest(&level, it.new_off, it.len) {
                if let Some(c) = &self.cache {
                    c.note_derived(it.new_off, it.len, d);
                }
                level.insert((it.new_off, it.len), d);
            }
        }
        self.level_digests = level;
    }

    /// Digest of one partition block: sibling derivation first (free),
    /// then the shared cache, then a metered scan. Derivation comes
    /// first so the hit/miss accounting of a warm session mirrors the
    /// miss accounting of the cold one exactly — the derivation
    /// decision depends only on session-local state, never on cache
    /// temperature.
    fn block_digest(
        &self,
        new: &[u8],
        level: &HashMap<(u64, u64), DecomposableDigest>,
        off: u64,
        len: u64,
    ) -> DecomposableDigest {
        if let Some(d) = self.derive_digest(level, off, len) {
            if let Some(c) = &self.cache {
                c.note_derived(off, len, d);
            }
            return d;
        }
        if let Some(hit) = self.cache.as_ref().and_then(|c| c.cached_range(off, len)) {
            return hit;
        }
        self.scan_digest(new, off, len)
    }

    /// Digest of `new[off..off + len]` by decomposition: the parent
    /// block digested last round minus the sibling digested this
    /// round. `None` when either half of that equation is missing —
    /// the caller falls back to other sources.
    fn derive_digest(
        &self,
        level: &HashMap<(u64, u64), DecomposableDigest>,
        off: u64,
        len: u64,
    ) -> Option<DecomposableDigest> {
        if len == 0 || !len.is_power_of_two() {
            return None; // tail blocks pair with nothing
        }
        let parent_off = off & !(2 * len - 1);
        let parent = self.level_digests.get(&(parent_off, 2 * len))?;
        let is_right = off == parent_off + len;
        let sibling_off = if is_right { parent_off } else { parent_off + len };
        let sibling = level.get(&(sibling_off, len))?;
        if is_right {
            parent.decompose_right(sibling)
        } else {
            parent.decompose_left(sibling)
        }
    }

    /// Metered scan of `new[off..off + len]` — through the shared
    /// cache when present, directly otherwise.
    fn scan_digest(&self, new: &[u8], off: u64, len: u64) -> DecomposableDigest {
        match &self.cache {
            Some(c) => c.range_digest(new, off, len),
            None => DecomposableDigest::of(&new[off as usize..(off + len) as usize]),
        }
    }

    pub(crate) fn on_client(&mut self, new: &[u8], parts: &[Part]) -> Result<Vec<Part>, SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty client message"))?;
        match self.state {
            SState::AwaitCandidates => self.on_candidates(new, &part.payload),
            SState::AwaitBatch => self.on_batch(new, &part.payload),
            SState::AwaitMaybeResend => Ok(self.on_resend(new)),
            SState::Done => Err(SyncError::Desync("client message after completion")),
        }
    }

    fn on_candidates(&mut self, new: &[u8], payload: &[u8]) -> Result<Vec<Part>, SyncError> {
        let mut r = BitReader::new(payload);
        let mut candidates = Vec::new();
        for i in 0..self.items.len() {
            if r.read_bit().map_err(|_| SyncError::Desync("candidate bitmap"))? {
                candidates.push(i);
            }
        }
        self.candidates = candidates;
        let verify = VerifyState::new(&self.cfg.verify, self.candidates.len());
        self.verify = Some(verify);
        self.check_groups(new, &mut r)
    }

    fn on_batch(&mut self, new: &[u8], payload: &[u8]) -> Result<Vec<Part>, SyncError> {
        let mut r = BitReader::new(payload);
        self.check_groups(new, &mut r)
    }

    /// Read the current batch's group hashes from `r`, evaluate them,
    /// and reply with the results bitmap (+ the next round when done).
    fn check_groups(&mut self, new: &[u8], r: &mut BitReader<'_>) -> Result<Vec<Part>, SyncError> {
        let verify =
            self.verify.as_mut().ok_or(SyncError::Desync("server verify state missing"))?;
        if verify.is_trivially_done() {
            // No candidates at all: nothing to verify, no results bitmap.
            self.verify = None;
            return Ok(self.advance(new));
        }
        let bits = verify.batch_config().bits;
        let mut results = Vec::with_capacity(verify.groups().len());
        let mut w = BitWriter::new();
        for group in verify.groups() {
            let sent = r.read_bits(bits).map_err(|_| SyncError::Desync("group hash"))?;
            let ranges = group.iter().map(|&cand| {
                let it = &self.items[self.candidates[cand]];
                (it.new_off, it.len)
            });
            let ours = match &self.cache {
                Some(c) => c.group_hash(new, &ranges.collect::<Vec<_>>(), bits),
                None => {
                    let mut md5 = Md5::new();
                    for (off, len) in ranges {
                        md5.update(&new[off as usize..(off + len) as usize]);
                    }
                    md5.finish_bits(bits)
                }
            };
            let passed = ours == sent;
            results.push(passed);
            w.write_bit(passed);
        }
        let outcome = verify.apply_results(&results);
        let mut parts = vec![Part { phase: Phase::Map, payload: w.into_bytes().into() }];
        match outcome {
            StepOutcome::NextBatch => {
                self.state = SState::AwaitBatch;
            }
            StepOutcome::Done => {
                let verify =
                    self.verify.take().ok_or(SyncError::Desync("server verify state missing"))?;
                for &cand in verify.confirmed() {
                    let it = &self.items[self.candidates[cand]];
                    self.coverage.insert(it.new_off, it.len);
                }
                parts.extend(self.advance(new));
            }
        }
        Ok(parts)
    }

    fn on_resend(&mut self, new: &[u8]) -> Vec<Part> {
        self.state = SState::Done;
        vec![Part { phase: Phase::Delta, payload: msync_compress::compress(new).into() }]
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

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
                    let mut results = Vec::with_capacity(verify.groups().len());
                    for _ in 0..verify.groups().len() {
                        results
                            .push(r.read_bit().map_err(|_| SyncError::Desync("results bitmap"))?);
                    }
                    match verify.apply_results(&results) {
                        StepOutcome::NextBatch => {
                            let part = self.compose_batch()?;
                            reply.push(part);
                        }
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

        let mut stats = LevelStats {
            block_size: d as usize,
            items: items.len(),
            cont_items: 0,
            local_items: 0,
            suppressed: 0,
            candidates: 0,
            confirmed: 0,
            wall_us: 0,
        };

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
        self.candidates = candidates;
        let verify = VerifyState::new(&self.cfg.verify, self.candidates.len());
        self.verify = Some(verify);

        // Compose bitmap + batch-1 hashes in one part.
        let mut payload = bitmap;
        self.write_group_hashes(&mut payload)?;
        Ok(Part { phase: Phase::Map, payload: payload.into_bytes().into() })
    }

    fn compose_batch(&mut self) -> Result<Part, SyncError> {
        let mut w = BitWriter::new();
        self.write_group_hashes(&mut w)?;
        Ok(Part { phase: Phase::Map, payload: w.into_bytes().into() })
    }

    fn write_group_hashes(&mut self, w: &mut BitWriter) -> Result<(), SyncError> {
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
        Ok(())
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

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

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
/// through [`sync_collection`](crate::sync_collection)'s in-process
/// pump. The stats' `traffic` is the whole wire cost, the roster
/// exchange included.
pub fn sync_file_with(
    old: &[u8],
    new: &[u8],
    cfg: &ProtocolConfig,
    opts: &SyncOptions,
) -> Result<SyncOutcome, SyncError> {
    let file = |data| FileRef { name: "", data };
    let mut out = sync_in_process(vec![file(old)], &[file(new)], cfg, &opts.recorder)?;
    let (Some(entry), Some((_, mut stats))) = (out.files.pop(), out.per_file.pop()) else {
        return Err(SyncError::Desync("one-file sync lost its file"));
    };
    stats.traffic = out.traffic;
    Ok(SyncOutcome { reconstructed: entry.data, stats, fell_back: out.fell_back > 0 })
}

#[cfg(test)]
mod digest_batch_tests {
    use super::*;
    use crate::snapshot::HashCache;
    use std::sync::Arc;

    fn cfg_three_levels() -> ProtocolConfig {
        ProtocolConfig {
            start_block: 128,
            min_block_global: 32,
            min_block_cont: 32,
            use_continuation: false,
            skip_sibling_of_matched: false,
            ..ProtocolConfig::default()
        }
    }

    fn corpus() -> Vec<u8> {
        (0..256u32).map(|i| (i.wrapping_mul(131) % 251) as u8).collect()
    }

    /// Drive three map rounds with no client matches and assert the
    /// emitted hash bits equal a per-range rescan of every transmitted
    /// item — derivation must be invisible on the wire.
    fn run_rounds(cfg: &ProtocolConfig, s: &mut ServerSession, new: &[u8]) {
        let cov = Coverage::new();
        let mut known = HashSet::new();
        for level in 0..3 {
            let items = items::enumerate(cfg, &cov, &known, new.len() as u64, level);
            let mut w = BitWriter::new();
            s.write_round_hashes(new, &items, &mut w);
            let mut reference = BitWriter::new();
            for it in &items {
                let bits = it.wire_bits(cfg, s.global_bits);
                if bits > 0 {
                    let d = DecomposableDigest::of(
                        &new[it.new_off as usize..(it.new_off + it.len) as usize],
                    );
                    reference.write_bits(d.prefix(bits), bits);
                }
            }
            assert_eq!(
                w.into_bytes(),
                reference.into_bytes(),
                "level {level}: derived wire bits must equal scanned wire bits"
            );
            items::extend_known_hashes(&mut known, &items);
        }
    }

    #[test]
    fn derived_wire_bits_match_scanned_wire_bits() {
        // Decomposable suppression off: every sibling is transmitted,
        // so right halves are derived *onto the wire* — the strongest
        // equality check.
        let cfg = ProtocolConfig { use_decomposable: false, ..cfg_three_levels() };
        let new = corpus();
        let mut s = ServerSession::new(cfg.clone());
        s.global_bits = 40;
        run_rounds(&cfg, &mut s, &new);
    }

    #[test]
    fn sibling_derivation_replaces_scans_and_is_metered() {
        let cfg = cfg_three_levels();
        let new = corpus();
        let rec = Recorder::system();
        let cache = SessionCache::new(
            Arc::new(HashCache::default()),
            file_fingerprint(&new),
            [0; 16],
            rec.clone(),
        );
        let mut s = ServerSession::with_cache(cfg.clone(), cache);
        s.global_bits = 40;
        run_rounds(&cfg, &mut s, &new);
        let m = rec.snapshot();
        // Level 0 scans both 128-byte blocks (no parents yet). Levels
        // 1 and 2 scan only the transmitted left halves; every right
        // half — suppressed on the wire — is derived from parent and
        // left sibling without touching the file.
        assert_eq!(m.hash_cache_miss_bytes, 256 + 128 + 128);
        assert_eq!(m.hash_cache_derived_bytes, 128 + 128);
        assert_eq!(m.hash_cache_derived, 2 + 4);
        assert_eq!(m.hash_cache_hits, 0, "a single cold session never hits");
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

/// The two sessions above over a threaded channel: a single file is a
/// one-entry collection.
#[cfg(test)]
mod channel_tests {
    use super::*;
    use crate::collection::{CollectionOutcome, FileEntry};
    use crate::config::ChannelOptions;
    use crate::pipeline::{sync_collection, sync_collection_channel};

    fn one(data: &[u8]) -> Vec<FileEntry> {
        vec![FileEntry::new("file", data)]
    }

    fn over_channel(
        old: &[FileEntry],
        new: &[FileEntry],
        channel: ChannelOptions,
    ) -> Result<CollectionOutcome, SyncError> {
        sync_collection_channel(old, new, &ProtocolConfig::default(), &channel, &Recorder::off())
    }

    fn blob(n: usize, seed: u64) -> Vec<u8> {
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

    #[test]
    fn channel_run_matches_in_process_driver() {
        let old = blob(30_000, 3);
        let mut new = old.clone();
        new.splice(12_000..12_050, blob(200, 4));
        let a = sync_collection(&one(&old), &one(&new), &ProtocolConfig::default()).unwrap();
        let b = over_channel(&one(&old), &one(&new), ChannelOptions::default()).unwrap();
        assert_eq!(a.files, one(&new));
        assert_eq!(b.files, one(&new));
        // Same machines and the same meter: a clean link costs exactly
        // what the in-process pump charges, frame for frame, and never
        // needs recovery.
        assert_eq!(b.per_file[0].1.levels, a.per_file[0].1.levels);
        assert_eq!(b.traffic, a.traffic);
        assert_eq!(b.traffic.retransmits, 0);
    }

    #[test]
    fn channel_run_unchanged_file() {
        let data = one(&blob(10_000, 5));
        let out = over_channel(&data, &data, ChannelOptions::default()).unwrap();
        assert_eq!(out.files, data);
        assert_eq!(out.unchanged, 1);
        assert!(out.traffic.total_bytes() < 96, "got {}", out.traffic.total_bytes());
    }

    #[test]
    fn channel_run_empty_to_full() {
        let new = one(&blob(5_000, 6));
        let out = over_channel(&one(b""), &new, ChannelOptions::default()).unwrap();
        assert_eq!(out.files, new);
    }

    fn short_retry() -> msync_protocol::RetryPolicy {
        msync_protocol::RetryPolicy {
            timeout: std::time::Duration::from_millis(20),
            max_retries: 8,
            backoff_cap: std::time::Duration::from_millis(80),
        }
    }

    #[test]
    fn channel_run_survives_lossy_link() {
        let old = blob(24_000, 7);
        let mut new = old.clone();
        new.splice(4_000..4_100, blob(300, 8));
        let plan = msync_protocol::FaultPlan::profile("lossy").unwrap();
        let opts =
            ChannelOptions { retry: short_retry(), fault_plan: Some(plan), fault_seed: 0xFA17 };
        let out = over_channel(&one(&old), &one(&new), opts).unwrap();
        assert_eq!(out.files, one(&new));
    }

    #[test]
    fn channel_run_corruption_is_healed_or_typed() {
        let new = one(&blob(16_000, 10));
        let plan = msync_protocol::FaultPlan::profile("corrupt").unwrap();
        let opts = ChannelOptions { retry: short_retry(), fault_plan: Some(plan), fault_seed: 99 };
        match over_channel(&one(&blob(16_000, 9)), &new, opts) {
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
    fn channel_run_disconnect_surfaces_typed_error() {
        use crate::pipeline::{serve_collection, sync_collection_client, PipelineOptions};
        // The profile cuts the link after 20 server frames. A changed
        // file takes at least two (its first reply and its delta), so
        // 24 of them one at a time is at least 48: the cut lands by
        // construction, whatever the default window admits.
        let old: Vec<FileEntry> =
            (0..24).map(|i| FileEntry::new(format!("f{i:02}"), blob(3_000, 100 + i))).collect();
        let new: Vec<FileEntry> = old
            .iter()
            .map(|f| {
                let mut data = f.data.clone();
                data.splice(1_000..1_010, *b"EDIT");
                FileEntry::new(f.name.clone(), data)
            })
            .collect();
        let plan = msync_protocol::FaultPlan::profile("disconnect").unwrap();
        let cfg = ProtocolConfig::default();
        let (mut client_ep, mut server_ep) = msync_protocol::Endpoint::pair_with_faults(&plan, 1);
        let result = std::thread::scope(|s| {
            s.spawn(|| serve_collection(&mut server_ep, &new, &cfg, short_retry()));
            let opts = PipelineOptions { depth: 1, retry: short_retry() };
            let result = sync_collection_client(&mut client_ep, &old, &cfg, &opts);
            drop(client_ep);
            result
        });
        match result {
            // Severed before the session finished: must be a typed
            // transport error, never a hang or a panic.
            Err(SyncError::PeerGone | SyncError::Timeout | SyncError::FrameCorrupt) => {}
            Ok(_) => panic!("the session outran the cut"),
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
}
