//! Pipelined collection synchronization as sans-IO machines.
//!
//! [`CollectionClientMachine`] and [`CollectionServeMachine`] carry the
//! wire schedule documented in [`crate::pipeline`]: a sorted roster
//! exchange, then windowed batch frames holding one round message per
//! in-flight file, one ARQ message per direction per flush. The
//! blocking [`sync_collection_client`](crate::pipeline) /
//! [`serve_collection`](crate::pipeline) drivers pump these machines
//! over a `Transport`; the `msync-net` daemon multiplexes many
//! [`CollectionServeMachine`]s on a fixed worker pool.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use msync_hash::{file_fingerprint, Fingerprint};
use msync_protocol::{BufferPool, Direction, FrameBuf, Phase, RetryPolicy, TrafficStats};
use msync_trace::{EventKind, HistKind, Recorder, ResumeRejectTag};

use super::arq::{micros_of, parse_frame, ArqCore, MAX_FRAMES_PER_EXCHANGE};
use super::{Machine, Output};
use crate::collection::{CollectionOutcome, FileEntry};
use crate::config::ProtocolConfig;
use crate::pipeline::{
    decode_batch, decode_resume_offer, decode_resume_verdict, decode_roster, encode_batch,
    encode_resume_offer, encode_resume_verdict, encode_roster, ResumeVerdict, ServeOutcome,
};
use crate::resume::{config_digest, ResumePlan};
use crate::session::{ClientAction, ClientSession, Part, SState, ServerSession, SyncError};
use crate::snapshot::{CollectionSnapshot, SessionCache};
use crate::stats::SyncStats;

/// One file the pipelined client has fully completed, surfaced through
/// [`CollectionClientMachine::drain_completed`] so a durability hook
/// can apply it atomically and checkpoint it while the session is
/// still running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedFile {
    /// Roster index (the server's sorted-name order).
    pub file_id: usize,
    /// Collection-relative name.
    pub name: String,
    /// Final file content.
    pub data: Vec<u8>,
    /// Whether the session fell back to a full transfer.
    pub fell_back: bool,
    /// Confirmed by a resume verdict rather than synced: the content
    /// equals the client's local copy (the sink should checkpoint it
    /// but need not rewrite it).
    pub resumed: bool,
    /// Scheduler round it completed in (0 = the roster/resume
    /// exchange itself).
    pub round: u64,
}

/// Per-file client state while the pipeline runs.
struct Slot<'a> {
    session: ClientSession<'a>,
    old_data: &'a [u8],
    existed: bool,
    traffic: TrafficStats,
    done: Option<(Vec<u8>, bool)>,
    /// Confirmed complete by the server's resume verdict (no session).
    resumed: bool,
    /// Recorder timestamp at admission (0 when tracing is off).
    t0_us: u64,
}

enum ClientState {
    AwaitRoster,
    AwaitBatch,
    Finished,
}

/// The client half of a pipelined collection sync as a sans-IO machine.
pub struct CollectionClientMachine<'a> {
    old: &'a [FileEntry],
    cfg: &'a ProtocolConfig,
    depth: usize,
    rec: Recorder,
    arq: ArqCore,
    state: ClientState,
    server_names: Vec<String>,
    slots: Vec<Slot<'a>>,
    outbox: Vec<(usize, Vec<Part>)>,
    expected: HashSet<usize>,
    next_admit: usize,
    in_flight: usize,
    done_count: usize,
    deleted: usize,
    /// Resume entries offered to the server (sorted by name). Empty
    /// when no offer was sent.
    offered: Vec<(String, Fingerprint)>,
    /// Completed files awaiting [`Self::drain_completed`].
    pending_completed: Vec<CompletedFile>,
    /// Scheduler round counter (0 = the roster/resume exchange).
    round: u64,
}

impl<'a> CollectionClientMachine<'a> {
    /// Build the machine and queue the roster message — plus a resume
    /// offer when `resume` holds a usable plan. `now_us` is the
    /// caller's clock reading, the origin for the first ARQ deadline.
    ///
    /// Plan entries are verified against `old` before being offered:
    /// only names whose local content actually carries the claimed
    /// digest go on the wire, so a stale checkpoint degrades to a
    /// smaller offer instead of corrupting the sync.
    ///
    /// # Errors
    /// [`SyncError::Config`] when `cfg` fails validation.
    pub fn new(
        old: &'a [FileEntry],
        cfg: &'a ProtocolConfig,
        depth: usize,
        retry: RetryPolicy,
        rec: Recorder,
        resume: Option<&ResumePlan>,
        now_us: u64,
    ) -> Result<Self, SyncError> {
        cfg.validate().map_err(SyncError::Config)?;
        let mut arq = ArqCore::client(retry, rec.clone());
        let mut my_names: Vec<&str> = old.iter().map(|f| f.name.as_str()).collect();
        my_names.sort_unstable();
        let mut message =
            vec![Part { phase: Phase::Setup, payload: encode_roster(&my_names).into() }];
        let mut offered: Vec<(String, Fingerprint)> = Vec::new();
        if let Some(plan) = resume {
            let by_name: HashMap<&str, &FileEntry> =
                old.iter().map(|f| (f.name.as_str(), f)).collect();
            offered = plan
                .entries
                .iter()
                .filter(|(name, digest)| {
                    by_name.get(name.as_str()).is_some_and(|f| file_fingerprint(&f.data) == *digest)
                })
                .cloned()
                .collect();
            if !offered.is_empty() {
                rec.record(EventKind::ResumeOffer { files: offered.len() as u64 });
                message.push(Part {
                    phase: Phase::Resume,
                    payload: encode_resume_offer(&plan.config_digest, &offered).into(),
                });
            }
        }
        arq.send_message(message, now_us);
        arq.begin_await(now_us);
        Ok(Self {
            old,
            cfg,
            depth: depth.max(1),
            rec,
            arq,
            state: ClientState::AwaitRoster,
            server_names: Vec::new(),
            slots: Vec::new(),
            outbox: Vec::new(),
            expected: HashSet::new(),
            next_admit: 0,
            in_flight: 0,
            done_count: 0,
            deleted: 0,
            offered,
            pending_completed: Vec::new(),
            round: 0,
        })
    }

    /// Draw encoded-frame buffers for this session from `pool`.
    pub fn set_pool(&mut self, pool: BufferPool) {
        self.arq.set_pool(pool);
    }

    /// Files completed since the last call, in completion order. The
    /// driver's durability hook applies and checkpoints them while the
    /// session keeps running; resumed files appear here too so a fresh
    /// checkpoint re-records them.
    pub fn drain_completed(&mut self) -> Vec<CompletedFile> {
        std::mem::take(&mut self.pending_completed)
    }

    /// Admit unstarted files into freed window slots, in roster order.
    /// Slots pre-completed by a resume verdict are skipped.
    fn admit(&mut self) {
        while self.next_admit < self.slots.len() && self.in_flight < self.depth {
            let id = self.next_admit;
            self.next_admit += 1;
            if self.slots[id].done.is_some() {
                continue;
            }
            self.in_flight += 1;
            self.rec.record(EventKind::SessionStart { file_id: id as u64 });
            self.slots[id].t0_us = self.rec.now_micros();
            let part = self.slots[id].session.request();
            self.slots[id].traffic.record(
                Direction::ClientToServer,
                part.phase,
                part.payload.len() as u64,
            );
            self.outbox.push((id, vec![part]));
        }
    }

    /// Flush the outbox as one batch message, or finish the session.
    fn flush(&mut self, now_us: u64) {
        if self.outbox.is_empty() {
            self.state = ClientState::Finished;
            return;
        }
        let batch = encode_batch(&self.outbox);
        self.expected = self.outbox.iter().map(|(id, _)| *id).collect();
        self.outbox.clear();
        self.round += 1;
        self.arq.send_message(vec![Part { phase: Phase::Map, payload: batch.into() }], now_us);
        self.arq.begin_await(now_us);
        self.state = ClientState::AwaitBatch;
    }

    /// Apply the server's resume verdict: mark accepted files done
    /// before any session starts.
    fn on_verdict(&mut self, payload: &[u8]) -> Result<(), SyncError> {
        match decode_resume_verdict(payload)? {
            ResumeVerdict::Accept(bits) => {
                if bits.len() != self.offered.len() {
                    return Err(SyncError::Desync("resume verdict length mismatch"));
                }
                let mut accepted = 0u64;
                for ((name, _), ok) in self.offered.iter().zip(&bits) {
                    if !ok {
                        continue;
                    }
                    // Offered names came from `old`, but only roster
                    // membership makes them resumable here.
                    let Ok(id) = self.server_names.binary_search(name) else {
                        return Err(SyncError::Desync("resume verdict for unknown file"));
                    };
                    let slot = &mut self.slots[id];
                    slot.done = Some((slot.old_data.to_vec(), false));
                    slot.resumed = true;
                    self.done_count += 1;
                    accepted += 1;
                    self.rec.record(EventKind::CacheHit { file_id: id as u64 });
                    self.pending_completed.push(CompletedFile {
                        file_id: id,
                        name: name.clone(),
                        data: slot.old_data.to_vec(),
                        fell_back: false,
                        resumed: true,
                        round: 0,
                    });
                }
                self.rec.record(EventKind::ResumeAccept {
                    accepted,
                    declined: self.offered.len() as u64 - accepted,
                });
            }
            ResumeVerdict::Reject(reason) => {
                self.rec.record(EventKind::ResumeReject { reason });
            }
        }
        Ok(())
    }

    fn on_roster(&mut self, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let roster_part = parts.first().ok_or(SyncError::Desync("missing server roster"))?;
        self.server_names = decode_roster(&roster_part.payload)?;
        let old_by_name: HashMap<&str, &FileEntry> =
            self.old.iter().map(|f| (f.name.as_str(), f)).collect();
        let server_set: HashSet<&str> = self.server_names.iter().map(String::as_str).collect();
        self.deleted = self.old.iter().filter(|f| !server_set.contains(f.name.as_str())).count();

        const EMPTY: &[u8] = &[];
        self.slots = self
            .server_names
            .iter()
            .enumerate()
            .map(|(id, name)| {
                let old_entry = old_by_name.get(name.as_str()).copied();
                let old_data = old_entry.map_or(EMPTY, |f| f.data.as_slice());
                let mut session = ClientSession::new(old_data, self.cfg);
                session.recorder = self.rec.clone();
                session.file_id = id as u64;
                Slot {
                    session,
                    old_data,
                    existed: old_entry.is_some(),
                    traffic: TrafficStats::new(),
                    done: None,
                    resumed: false,
                    t0_us: 0,
                }
            })
            .collect();
        if !self.offered.is_empty() {
            let verdict = parts
                .iter()
                .find(|p| p.phase == Phase::Resume)
                .ok_or(SyncError::Desync("missing resume verdict"))?;
            self.on_verdict(&verdict.payload)?;
        }
        self.admit();
        if self.rec.is_enabled() && !self.slots.is_empty() {
            self.rec.record(EventKind::WindowAdvance {
                in_flight: self.in_flight as u64,
                admitted: self.next_admit as u64,
                done: self.done_count as u64,
            });
        }
        self.flush(now_us);
        Ok(())
    }

    fn on_batch(&mut self, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty batch reply"))?;
        for (id, parts) in decode_batch(&part.payload)? {
            if !self.expected.remove(&id) {
                return Err(SyncError::Desync("batch reply for a file not in flight"));
            }
            let slot = self.slots.get_mut(id).ok_or(SyncError::Desync("batch id out of range"))?;
            for p in &parts {
                slot.traffic.record(Direction::ServerToClient, p.phase, p.payload.len() as u64);
            }
            match slot.session.handle(parts)? {
                ClientAction::Done { data, fell_back } => {
                    if self.rec.is_enabled() {
                        self.rec.observe(
                            HistKind::SessionDuration,
                            self.rec.now_micros().saturating_sub(slot.t0_us),
                        );
                        self.rec.record(EventKind::SessionEnd {
                            file_id: id as u64,
                            ok: true,
                            fell_back,
                        });
                    }
                    self.pending_completed.push(CompletedFile {
                        file_id: id,
                        name: self.server_names[id].clone(),
                        data: data.clone(),
                        fell_back,
                        resumed: false,
                        round: self.round,
                    });
                    slot.done = Some((data, fell_back));
                    self.in_flight -= 1;
                    self.done_count += 1;
                }
                ClientAction::Reply(cparts) => {
                    if cparts.is_empty() {
                        return Err(SyncError::Desync("session yielded no reply"));
                    }
                    for p in &cparts {
                        slot.traffic.record(
                            Direction::ClientToServer,
                            p.phase,
                            p.payload.len() as u64,
                        );
                    }
                    self.outbox.push((id, cparts));
                }
            }
        }
        if !self.expected.is_empty() {
            return Err(SyncError::Desync("batch reply missing an in-flight file"));
        }
        self.admit();
        if self.rec.is_enabled() {
            self.rec.record(EventKind::WindowAdvance {
                in_flight: self.in_flight as u64,
                admitted: self.next_admit as u64,
                done: self.done_count as u64,
            });
        }
        self.flush(now_us);
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
        let n = self.server_names.len();
        let mut files = Vec::with_capacity(n);
        let mut per_file = Vec::with_capacity(n);
        let mut unchanged = 0usize;
        let mut created = 0usize;
        let mut fell_back = 0usize;
        let mut resumed = 0usize;
        for (name, slot) in self.server_names.iter().zip(self.slots) {
            let (data, fb) = slot.done.ok_or(SyncError::Desync("file never completed"))?;
            if !slot.existed {
                created += 1;
            }
            if fb {
                fell_back += 1;
            }
            let levels = slot.session.levels;
            if slot.resumed {
                resumed += 1;
            } else if slot.existed && levels.is_empty() && data.as_slice() == slot.old_data {
                unchanged += 1;
            }
            let stats = SyncStats {
                traffic: slot.traffic,
                levels,
                known_bytes: slot.session.map.known_bytes(),
                delta_bytes: slot.session.delta_bytes,
            };
            per_file.push((name.clone(), stats));
            files.push(FileEntry { name: name.clone(), data });
        }
        Ok(CollectionOutcome {
            files,
            traffic,
            per_file,
            unchanged,
            created,
            renamed: 0,
            deleted: self.deleted,
            fell_back,
            resumed,
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

/// Server-side per-file session state.
enum ServeSlot {
    Idle,
    Running(ServerSession),
    Finished,
}

enum ServeState {
    AwaitRoster,
    Await,
    Linger { deadline_us: u64 },
    Done,
}

/// The server half of a pipelined collection sync as a sans-IO machine.
/// The served collection is the per-call context
/// (`Ctx = CollectionSnapshot`), so a daemon shares one immutable
/// snapshot read-only across every concurrent session — and can swap
/// its registry entry for a new snapshot without disturbing machines
/// already bound to the old one.
///
/// The context must be identical on every call: the machine captures
/// the sorted roster order on the first message and indexes the
/// snapshot by it thereafter. The daemon guarantees this by binding
/// each connection to one `Arc<CollectionSnapshot>` at handshake time.
pub struct CollectionServeMachine {
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
    rostered: bool,
    sessions: usize,
    quiet: u32,
    linger_frames: u32,
}

impl CollectionServeMachine {
    /// Build the machine, waiting for a client roster from `now_us`.
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
            state: ServeState::AwaitRoster,
            order: Vec::new(),
            slots: Vec::new(),
            rostered: false,
            sessions: 0,
            quiet: 0,
            linger_frames: 0,
        })
    }

    /// Draw encoded-frame buffers for this session from `pool`.
    pub fn set_pool(&mut self, pool: BufferPool) {
        self.arq.set_pool(pool);
    }

    /// What this connection amounted to. `files_in_collection` is the
    /// served collection's size (used when the peer vanished before the
    /// roster exchange); `traffic` is the transport's wire accounting.
    #[must_use]
    pub fn outcome(&self, files_in_collection: usize, traffic: TrafficStats) -> ServeOutcome {
        let files = if self.rostered { self.order.len() } else { files_in_collection };
        ServeOutcome { files, sessions: self.sessions, traffic }
    }

    fn enter_linger(&mut self, now_us: u64) {
        self.quiet = 0;
        self.linger_frames = 0;
        let deadline_us = now_us.saturating_add(micros_of(self.arq.retry().timeout));
        self.state = ServeState::Linger { deadline_us };
    }

    /// Evaluate a client's resume offer against the served collection.
    /// Every entry whose name is in the roster *and* whose digest
    /// matches the server's current content is accepted; its slot is
    /// finished without ever running a session. Malformed or
    /// incompatible offers produce a typed rejection, never an error —
    /// the client falls back to a full sync.
    fn eval_offer(
        &mut self,
        snap: &CollectionSnapshot,
        names: &[&str],
        payload: &[u8],
    ) -> ResumeVerdict {
        let (their_digest, entries) = match decode_resume_offer(payload) {
            Ok(decoded) => decoded,
            Err(reason) => {
                self.rec.record(EventKind::ResumeReject { reason });
                return ResumeVerdict::Reject(reason);
            }
        };
        self.rec.record(EventKind::ResumeOffer { files: entries.len() as u64 });
        if their_digest != config_digest(&self.cfg) {
            self.rec.record(EventKind::ResumeReject { reason: ResumeRejectTag::ConfigMismatch });
            return ResumeVerdict::Reject(ResumeRejectTag::ConfigMismatch);
        }
        let mut bits = Vec::with_capacity(entries.len());
        let mut accepted = 0u64;
        for (name, digest) in &entries {
            let ok = names.binary_search(&name.as_str()).is_ok_and(|id| {
                // Fingerprints were computed once at snapshot build
                // time; an offer check does no hashing at all.
                let fresh = snap.fingerprint(self.order[id]) == *digest;
                if fresh {
                    self.slots[id] = ServeSlot::Finished;
                }
                fresh
            });
            accepted += u64::from(ok);
            bits.push(ok);
        }
        self.rec.record(EventKind::ResumeAccept {
            accepted,
            declined: entries.len() as u64 - accepted,
        });
        ResumeVerdict::Accept(bits)
    }

    fn on_roster(
        &mut self,
        snap: &CollectionSnapshot,
        parts: &[Part],
        now_us: u64,
    ) -> Result<(), SyncError> {
        let roster_part = parts.first().ok_or(SyncError::Desync("empty client roster"))?;
        // The client's roster is advisory (it computes creates and
        // deletes itself); decoding it validates the handshake.
        decode_roster(&roster_part.payload)?;
        let new = snap.files();
        let mut order: Vec<usize> = (0..new.len()).collect();
        order.sort_by(|&a, &b| new[a].name.cmp(&new[b].name));
        let names: Vec<&str> = order.iter().map(|&i| new[i].name.as_str()).collect();
        self.slots = (0..order.len()).map(|_| ServeSlot::Idle).collect();
        self.order = order;
        let mut reply = vec![Part { phase: Phase::Setup, payload: encode_roster(&names).into() }];
        if let Some(offer) = parts.iter().find(|p| p.phase == Phase::Resume) {
            let verdict = self.eval_offer(snap, &names, &offer.payload);
            reply.push(Part {
                phase: Phase::Resume,
                payload: encode_resume_verdict(&verdict).into(),
            });
        }
        self.arq.send_message(reply, now_us);
        self.rostered = true;
        self.state = ServeState::Await;
        self.arq.begin_await(now_us);
        Ok(())
    }

    fn on_batch(
        &mut self,
        snap: &CollectionSnapshot,
        parts: &[Part],
        now_us: u64,
    ) -> Result<(), SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty batch message"))?;
        let mut out: Vec<(usize, Vec<Part>)> = Vec::new();
        for (id, parts) in decode_batch(&part.payload)? {
            let slot = self.slots.get_mut(id).ok_or(SyncError::Desync("batch id out of range"))?;
            let file_idx = *self.order.get(id).ok_or(SyncError::Desync("batch id"))?;
            let entry = snap.files().get(file_idx).ok_or(SyncError::Desync("collection shrank"))?;
            let reply = match slot {
                ServeSlot::Idle => {
                    let cache = SessionCache::new(
                        Arc::clone(snap.cache()),
                        snap.fingerprint(file_idx),
                        self.cfg_digest,
                        self.rec.clone(),
                    );
                    let mut session = ServerSession::with_cache(self.cfg.clone(), cache);
                    let p0 = parts.first().ok_or(SyncError::Desync("empty file message"))?;
                    let reply = session.on_request(&entry.data, &p0.payload)?;
                    self.sessions += 1;
                    *slot = ServeSlot::Running(session);
                    reply
                }
                ServeSlot::Running(session) => session.on_client(&entry.data, &parts)?,
                ServeSlot::Finished => {
                    return Err(SyncError::Desync("message for a finished file"))
                }
            };
            if let ServeSlot::Running(session) = slot {
                if session.state == SState::Done {
                    *slot = ServeSlot::Finished;
                }
            }
            out.push((id, reply));
        }
        self.arq.send_message(
            vec![Part { phase: Phase::Map, payload: encode_batch(&out).into() }],
            now_us,
        );
        self.arq.begin_await(now_us);
        Ok(())
    }

    /// A frame arrived during the linger (`None`: it failed its CRC).
    fn on_linger_frame(&mut self, bytes: Option<&FrameBuf>, now_us: u64) {
        self.linger_frames += 1;
        self.quiet = 0;
        if let Some(frame) = bytes.and_then(parse_frame) {
            self.arq.queue_attribute(frame.part.phase);
            if frame.seq < self.arq.recv_seq() && !frame.more && self.arq.has_cached() {
                self.arq.queue_retransmit();
            }
        }
        if self.linger_frames >= MAX_FRAMES_PER_EXCHANGE {
            self.state = ServeState::Done;
        } else {
            let deadline_us = now_us.saturating_add(micros_of(self.arq.retry().timeout));
            self.state = ServeState::Linger { deadline_us };
        }
    }
}

impl Machine for CollectionServeMachine {
    type Ctx = CollectionSnapshot;

    fn on_frame(
        &mut self,
        snap: &CollectionSnapshot,
        bytes: &FrameBuf,
        now_us: u64,
    ) -> Result<(), SyncError> {
        match self.state {
            ServeState::AwaitRoster | ServeState::Await => {
                let Some(parts) = self.arq.on_frame(bytes, now_us)? else {
                    return Ok(());
                };
                match self.state {
                    ServeState::AwaitRoster => self.on_roster(snap, &parts, now_us),
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
            ServeState::AwaitRoster | ServeState::Await => self.arq.on_corrupt(now_us),
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
                ServeState::AwaitRoster | ServeState::Await => {
                    match self.arq.poll_deadline(now_us) {
                        Ok(()) => {
                            if !self.arq.has_effects() {
                                return Ok(Output::Wait { deadline_us: self.arq.deadline_us() });
                            }
                        }
                        // Budget exhausted: the client went silent. No
                        // roster yet means nothing was served; in
                        // flight, linger for straggling retransmissions
                        // before leaving.
                        Err(SyncError::Timeout | SyncError::FrameCorrupt) => {
                            if matches!(self.state, ServeState::AwaitRoster) {
                                self.state = ServeState::Done;
                            } else {
                                self.enter_linger(now_us);
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
                        let next = now_us.saturating_add(micros_of(self.arq.retry().timeout));
                        self.state = ServeState::Linger { deadline_us: next };
                    }
                }
            }
        }
    }
}
