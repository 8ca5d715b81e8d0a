//! The server side of the protocol: one [`ServerSession`] per file a
//! client opens (round hashes, verification, delta encode), and the
//! [`CollectionServeMachine`] that answers the opener with the roster,
//! judges the group check and answers every batch in one frame.
//! [`super::codec`] documents the wire formats both sides share.

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;

use msync_hash::decomposable::DecomposableDigest;
use msync_hash::{BitReader, BitWriter, Fingerprint, Md5};
use msync_protocol::{BufferPool, FrameBuf, Phase, RetryPolicy, TrafficStats};
use msync_trace::Recorder;

use super::arq::{micros_of, parse_frame, ArqCore, MAX_FRAMES_PER_EXCHANGE};
use super::codec::{
    decode_batch, encode_batch, encode_roster, join_remainder, split_of, Batch, GroupCheck, Part,
};
use super::{run_in_order, run_jobs, FnJob, Job, Machine, Output, Runner, SyncError, JOB_LOST};
use crate::config::ProtocolConfig;
use crate::coverage::Coverage;
use crate::items::{self, global_hash_bits, Item, ItemKind};
use crate::params::config_digest;
use crate::snapshot::{CollectionSnapshot, ServedFiles, SessionCache};
use crate::verify::{StepOutcome, VerifyState};

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
    /// A session whose map-phase hash work (block digests, verification
    /// hashes) is memoized in `cache`, when given.
    pub(crate) fn new(cfg: ProtocolConfig, cache: Option<SessionCache>) -> Self {
        Self {
            cfg,
            coverage: Coverage::new(),
            known_hashes: HashSet::new(),
            global_bits: 0,
            level: 0,
            items: Vec::new(),
            candidates: Vec::new(),
            verify: None,
            cache,
            level_digests: HashMap::new(),
            state: SState::Done,
        }
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
            SState::AwaitBatch => self.check_groups(new, &mut BitReader::new(&part.payload)),
            SState::AwaitMaybeResend => {
                self.state = SState::Done;
                Ok(vec![Part {
                    phase: Phase::Delta,
                    payload: msync_compress::compress(new).into(),
                }])
            }
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
        self.verify = Some(VerifyState::new(&self.cfg.verify, candidates.len()));
        self.candidates = candidates;
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
            StepOutcome::NextBatch => self.state = SState::AwaitBatch,
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
}

/// Server-side per-file session state.
enum ServeSlot {
    Idle,
    Running(ServerSession),
    /// Its session is out in a job of the batch being handled.
    Busy,
    Finished,
}

/// One file's step on the server: its session, taken out of the slot,
/// over the client's message for it and the served file's bytes.
struct ServeJob<'s> {
    id: usize,
    session: ServerSession,
    /// The message opens the session (the client's setup request).
    opens: bool,
    data: &'s [u8],
    parts: Vec<Part>,
    result: Result<Vec<Part>, SyncError>,
}

impl Job for ServeJob<'_> {
    fn run(&mut self) -> bool {
        self.result = match (self.opens, self.parts.first()) {
            (true, Some(request)) => self.session.on_request(self.data, &request.payload),
            (true, None) => Err(SyncError::Desync("empty file message")),
            (false, _) => self.session.on_client(self.data, &self.parts),
        };
        self.result.is_ok()
    }
}

enum ServeState {
    AwaitOpener,
    Await,
    Linger { deadline_us: u64 },
    Done,
}

/// The server half of a pipelined collection sync as a sans-IO machine.
/// The served collection is the per-call context (`Ctx = S`): by
/// default a [`CollectionSnapshot`], so a daemon shares one immutable
/// snapshot read-only across every concurrent session — and can swap
/// its registry entry for a new snapshot without disturbing machines
/// already bound to the old one. A one-shot sync serves its caller's
/// files borrowed as they are (`S = [FileRef]`), with no copy and no
/// cross-session cache.
///
/// The context must be identical on every call: the machine captures
/// the sorted roster order on the opener and indexes the collection by
/// it thereafter. The daemon guarantees this by binding
/// each connection to one `Arc<CollectionSnapshot>` at handshake time.
pub struct CollectionServeMachine<S: ServedFiles + ?Sized = CollectionSnapshot> {
    cfg: ProtocolConfig,
    /// [`config_digest`] of `cfg`, computed once: half of every
    /// session's hash-cache key.
    cfg_digest: [u8; 16],
    rec: Recorder,
    arq: ArqCore,
    state: ServeState,
    /// Index into the served collection, in sorted-name (roster) order.
    order: Vec<usize>,
    slots: Vec<ServeSlot>,
    /// Full fingerprints in roster order, and the bytes of each the
    /// roster carried.
    fps: Vec<Fingerprint>,
    weak: usize,
    /// Files whose whole fingerprint the client holds: sent with a
    /// failed group verdict, or with the session's first reply.
    told: Vec<bool>,
    /// No batch has arrived yet: only the first may carry the group
    /// check.
    first_batch: bool,
    sessions: usize,
    quiet: u32,
    linger_frames: u32,
    runner: Runner,
    served: PhantomData<fn(&S)>,
}

impl<S: ServedFiles + ?Sized> CollectionServeMachine<S> {
    /// Build the machine, waiting for a client's opener from `now_us`.
    ///
    /// # Errors
    /// [`SyncError::Config`] when `cfg` fails validation.
    pub fn new(
        cfg: &ProtocolConfig,
        retry: RetryPolicy,
        rec: Recorder,
        now_us: u64,
    ) -> Result<Self, SyncError> {
        cfg.validate().map_err(SyncError::Config)?;
        let mut arq = ArqCore::server(retry, rec.clone());
        arq.begin_await(now_us);
        Ok(Self {
            cfg: cfg.clone(),
            cfg_digest: config_digest(cfg),
            rec,
            arq,
            state: ServeState::AwaitOpener,
            order: Vec::new(),
            slots: Vec::new(),
            fps: Vec::new(),
            weak: 0,
            told: Vec::new(),
            first_batch: true,
            sessions: 0,
            quiet: 0,
            linger_frames: 0,
            runner: run_in_order,
            served: PhantomData,
        })
    }

    /// Draw encoded-frame buffers for this session from `pool`.
    pub fn set_pool(&mut self, pool: BufferPool) {
        self.arq.set_pool(pool);
    }

    /// Run the roster's fingerprinting and each batch's per-file session
    /// work through `runner`.
    pub(crate) fn set_runner(&mut self, runner: Runner) {
        self.runner = runner;
    }

    /// What this connection amounted to. `files_in_collection` is the
    /// served collection's size, the roster's length; `traffic` is the
    /// transport's wire accounting.
    #[must_use]
    pub fn outcome(&self, files_in_collection: usize, traffic: TrafficStats) -> ServeOutcome {
        ServeOutcome { files: files_in_collection, sessions: self.sessions, traffic }
    }

    /// Linger one retry timeout from `now_us` for a straggling frame.
    fn linger(&mut self, now_us: u64) {
        let deadline_us = now_us.saturating_add(micros_of(self.arq.retry().timeout));
        self.state = ServeState::Linger { deadline_us };
    }

    /// Answer the client's opener with the roster: every served file in
    /// sorted-name order with its length and weak fingerprint bytes,
    /// fingerprinted through the runner (a snapshot holds them
    /// precomputed).
    fn on_opener(&mut self, snap: &S, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        if !matches!(parts, [Part { phase: Phase::Setup, payload }] if payload.is_empty()) {
            return Err(SyncError::Desync("client opener is not one empty setup part"));
        }
        let mut order: Vec<usize> = (0..snap.file_count()).collect();
        order.sort_by_key(|&i| snap.file(i).name);
        let mut fps: Vec<Option<Fingerprint>> = vec![None; order.len()];
        let mut jobs: Vec<_> = order
            .iter()
            .zip(&mut fps)
            .map(|(&i, fp)| FnJob(move || *fp = Some(snap.fingerprint(i))))
            .collect();
        run_jobs(self.runner, &mut jobs);
        drop(jobs);
        let files = order
            .iter()
            .zip(fps)
            .map(|(&i, fp)| {
                let file = snap.file(i);
                Ok((file.name, file.data.len() as u64, fp.ok_or(JOB_LOST)?))
            })
            .collect::<Result<Vec<_>, SyncError>>()?;
        let (roster, weak) = encode_roster(&files);
        let roster = Part { phase: Phase::Setup, payload: roster.into() };
        self.slots = (0..order.len()).map(|_| ServeSlot::Idle).collect();
        self.fps = files.iter().map(|&(_, _, fp)| fp).collect();
        self.weak = weak;
        self.told = vec![false; order.len()];
        self.order = order;
        self.arq.send_message(vec![roster], now_us);
        self.state = ServeState::Await;
        self.arq.begin_await(now_us);
        Ok(())
    }

    /// A batch in three steps: check it and take out the sessions it
    /// addresses, run one job per file, commit the results in wire order
    /// (the first failure in that order wins) into the reply batch. The
    /// first batch's group check is judged before any job runs, and its
    /// verdict rides on the reply.
    fn on_batch(&mut self, snap: &S, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty batch message"))?;
        let Batch { files, check } = decode_batch(&part.payload)?;
        let verdict = match (std::mem::replace(&mut self.first_batch, false), check) {
            (true, Some(check)) => Some(self.judge(&check.payload, &files)?),
            (false, Some(_)) => return Err(SyncError::Desync("group check after the first batch")),
            (_, None) => None,
        };
        let mut jobs = self.take_jobs(snap, files)?;
        run_jobs(self.runner, &mut jobs);
        let mut out: Vec<(usize, Vec<Part>)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let mut reply = job.result?;
            if job.opens && !std::mem::replace(&mut self.told[job.id], true) {
                // A session's first reply leads with the rest of the
                // file's fingerprint.
                let first =
                    reply.first_mut().ok_or(SyncError::Desync("session yielded no reply"))?;
                first.payload = join_remainder(&self.fps[job.id], self.weak, &first.payload);
            }
            self.sessions += usize::from(job.opens);
            self.slots[job.id] = if job.session.state == SState::Done {
                ServeSlot::Finished
            } else {
                ServeSlot::Running(job.session)
            };
            out.push((job.id, reply));
        }
        self.arq.send_message(
            vec![Part { phase: Phase::Map, payload: encode_batch(&out, verdict.as_ref()).into() }],
            now_us,
        );
        self.arq.begin_await(now_us);
        Ok(())
    }

    /// Judge the client's group check against the server's own full
    /// fingerprints. No file it settles may open in the same batch. A
    /// pass finishes every settled file; a fail sends each one's
    /// remainder back, so a file among them that opens later needs none.
    fn judge(&mut self, payload: &[u8], files: &[(usize, Vec<Part>)]) -> Result<Part, SyncError> {
        let check = GroupCheck::decode(payload, self.fps.len())?;
        if files.iter().any(|(id, _)| check.settled.binary_search(id).is_ok()) {
            return Err(SyncError::Desync("batch opens a provisionally settled file"));
        }
        let (pass, verdict) = check.judge(&self.fps, self.weak);
        for &id in &check.settled {
            if pass {
                self.slots[id] = ServeSlot::Finished;
            } else {
                self.told[id] = true;
            }
        }
        Ok(Part { phase: Phase::Setup, payload: verdict.into() })
    }

    /// Refuse a batch naming a file out of range, finished, or twice —
    /// before any job runs — and take each addressed session out of its
    /// slot (opening it on the file's first message).
    fn take_jobs<'s>(
        &mut self,
        snap: &'s S,
        batch: Vec<(usize, Vec<Part>)>,
    ) -> Result<Vec<ServeJob<'s>>, SyncError> {
        batch
            .into_iter()
            .map(|(id, parts)| {
                let slot =
                    self.slots.get_mut(id).ok_or(SyncError::Desync("batch id out of range"))?;
                let file_idx = *self.order.get(id).ok_or(SyncError::Desync("batch id"))?;
                if file_idx >= snap.file_count() {
                    return Err(SyncError::Desync("collection shrank"));
                }
                let (session, opens) = match std::mem::replace(slot, ServeSlot::Busy) {
                    ServeSlot::Idle => {
                        let cache = snap.hash_cache().map(|cache| {
                            let fp = snap.fingerprint(file_idx);
                            SessionCache::new(
                                Arc::clone(cache),
                                fp,
                                self.cfg_digest,
                                self.rec.clone(),
                            )
                        });
                        (ServerSession::new(self.cfg.clone(), cache), true)
                    }
                    ServeSlot::Running(session) => (session, false),
                    ServeSlot::Busy => return Err(SyncError::Desync("batch names a file twice")),
                    ServeSlot::Finished => {
                        return Err(SyncError::Desync("message for a finished file"))
                    }
                };
                let data = snap.file(file_idx).data;
                Ok(ServeJob { id, session, opens, data, parts, result: Err(JOB_LOST) })
            })
            .collect()
    }

    /// A frame arrived during the linger (`None`: it failed its CRC).
    fn on_linger_frame(&mut self, bytes: Option<&FrameBuf>, now_us: u64) {
        self.linger_frames += 1;
        self.quiet = 0;
        if let Some(frame) = bytes.and_then(parse_frame) {
            self.arq.queue_attribute(split_of(&frame.part));
            if frame.seq < self.arq.recv_seq() && !frame.more && self.arq.has_cached() {
                self.arq.queue_retransmit();
            }
        }
        if self.linger_frames >= MAX_FRAMES_PER_EXCHANGE {
            self.state = ServeState::Done;
        } else {
            self.linger(now_us);
        }
    }
}

impl<S: ServedFiles + ?Sized> Machine for CollectionServeMachine<S> {
    type Ctx = S;

    fn on_frame(&mut self, snap: &S, bytes: &FrameBuf, now_us: u64) -> Result<(), SyncError> {
        match self.state {
            ServeState::AwaitOpener | ServeState::Await => {
                let Some(parts) = self.arq.on_frame(bytes, now_us)? else {
                    return Ok(());
                };
                match self.state {
                    ServeState::AwaitOpener => self.on_opener(snap, &parts, now_us),
                    _ => self.on_batch(snap, &parts, now_us),
                }
            }
            ServeState::Linger { .. } => {
                self.on_linger_frame(Some(bytes), now_us);
                Ok(())
            }
            ServeState::Done => Ok(()),
        }
    }

    fn on_corrupt_frame(&mut self, now_us: u64) -> Result<(), SyncError> {
        match self.state {
            ServeState::AwaitOpener | ServeState::Await => self.arq.on_corrupt(now_us),
            ServeState::Linger { .. } => {
                self.on_linger_frame(None, now_us);
                Ok(())
            }
            ServeState::Done => Ok(()),
        }
    }

    fn on_disconnect(&mut self) -> Result<(), SyncError> {
        // Peer gone: the client is done with us — the normal end of
        // pipelined service.
        self.state = ServeState::Done;
        Ok(())
    }

    fn poll_output(&mut self, now_us: u64) -> Result<Output, SyncError> {
        loop {
            if let Some(effect) = self.arq.next_effect() {
                return Ok(effect);
            }
            match self.state {
                ServeState::Done => return Ok(Output::Done),
                ServeState::AwaitOpener | ServeState::Await => {
                    match self.arq.poll_deadline(now_us) {
                        Ok(()) => {
                            if !self.arq.has_effects() {
                                return Ok(Output::Wait { deadline_us: self.arq.deadline_us() });
                            }
                        }
                        // Budget exhausted: the client went silent. No
                        // opener yet means nothing was served; in
                        // flight, linger for straggling retransmissions
                        // before leaving.
                        Err(SyncError::Timeout | SyncError::FrameCorrupt) => {
                            if matches!(self.state, ServeState::AwaitOpener) {
                                self.state = ServeState::Done;
                            } else {
                                (self.quiet, self.linger_frames) = (0, 0);
                                self.linger(now_us);
                            }
                        }
                        Err(other) => return Err(other),
                    }
                }
                ServeState::Linger { deadline_us } => {
                    if now_us < deadline_us {
                        return Ok(Output::Wait { deadline_us });
                    }
                    self.quiet += 1;
                    if self.quiet > self.arq.retry().max_retries {
                        self.state = ServeState::Done;
                    } else {
                        self.linger(now_us);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod digest_batch_tests {
    use super::*;
    use crate::snapshot::HashCache;
    use msync_hash::file_fingerprint;
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
        let mut s = ServerSession::new(cfg.clone(), None);
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
        let mut s = ServerSession::new(cfg.clone(), Some(cache));
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
