//! Pipelined collection synchronization as sans-IO machines.
//!
//! [`CollectionClientMachine`] and [`CollectionServeMachine`] carry the
//! wire schedule documented in [`crate::pipeline`]: a sorted roster
//! exchange, then batch frames holding one round message per file in
//! the window, one ARQ message per direction per flush. The window is
//! the client's alone: it admits files in roster order while the
//! content bytes of open sessions fit
//! [`WINDOW_BUDGET_BYTES`]. The
//! blocking [`sync_collection_client`](crate::pipeline) /
//! [`serve_collection`](crate::pipeline) drivers pump these machines
//! over a `Transport`; the `msync-net` daemon multiplexes many
//! [`CollectionServeMachine`]s on a fixed worker pool.

use std::collections::{HashMap, HashSet, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

use msync_hash::{file_fingerprint, Fingerprint};
use msync_protocol::{BufferPool, Direction, FrameBuf, Phase, RetryPolicy, TrafficStats};
use msync_trace::{EventKind, HistKind, Recorder, ResumeRejectTag};

use super::arq::{micros_of, parse_frame, split_of, ArqCore, MAX_FRAMES_PER_EXCHANGE};
use super::{run_in_order, run_jobs, Job, Machine, Output, Runner};
use crate::collection::{CollectionOutcome, FileEntry, FileRef};
use crate::config::ProtocolConfig;
use crate::pipeline::{
    decode_batch, decode_resume_offer, decode_resume_verdict, decode_roster, encode_batch,
    encode_resume_offer, encode_resume_verdict, encode_roster, ResumeVerdict, ServeOutcome,
    WINDOW_BUDGET_BYTES,
};
use crate::resume::{config_digest, ResumePlan};
use crate::session::{ClientAction, ClientSession, Part, SState, ServerSession, SyncError};
use crate::snapshot::{CollectionSnapshot, ServedFiles, SessionCache};
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
    /// Final file content: the one allocation the machine also keeps
    /// for [`CollectionClientMachine::finish`], which takes it back
    /// without a copy once every `CompletedFile` has been dropped.
    pub data: Arc<Vec<u8>>,
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
    /// The open session: `None` until admitted, and again once done —
    /// a finished file keeps only its [`SyncStats`].
    session: Option<ClientSession<'a>>,
    old_data: &'a [u8],
    existed: bool,
    /// Payload bytes by phase as this file's parts carried them; the
    /// session's levels and byte counts join them when it finishes.
    stats: SyncStats,
    /// Final content and the fell-back flag. An `Arc<Vec<u8>>`, not an
    /// `Arc<[u8]>`: `finish` unwraps it into the `Vec` the outcome owns.
    #[allow(clippy::rc_buffer)]
    done: Option<(Arc<Vec<u8>>, bool)>,
    /// Content bytes this session holds of the window budget: 0 until
    /// admitted, while parked, and once done.
    charged: u64,
    /// Confirmed complete by the server's resume verdict (no session).
    resumed: bool,
    /// Recorder timestamp at admission (0 when tracing is off).
    t0_us: u64,
}

impl Slot<'_> {
    /// What the session counts against the window budget: the local
    /// copy until the setup reply reveals the server's length, then the
    /// larger of the two (a delta is decoded against one into the other).
    fn content_bytes(&self) -> u64 {
        let new_len = self.session.as_ref().map_or(0, |s| s.new_len);
        (self.old_data.len() as u64).max(new_len).max(1)
    }
}

/// What a job's result reads until the job has run: the commit reports
/// it for a job a runner lost (its thread panicked).
const JOB_LOST: SyncError = SyncError::Desync("a session job never finished");

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
    outbox: Vec<(usize, Vec<Part>)>,
    /// Replies held back because the setup reply revealed a length the
    /// window had no room for; they rejoin it first, in arrival order.
    parked: VecDeque<(usize, Vec<Part>)>,
    expected: HashSet<usize>,
    next_admit: usize,
    /// Open sessions, parked ones included.
    in_flight: usize,
    /// Sum of [`Slot::charged`].
    in_flight_bytes: u64,
    done_count: usize,
    deleted: usize,
    /// Resume entries offered to the server (sorted by name). Empty
    /// when no offer was sent.
    offered: Vec<(String, Fingerprint)>,
    /// Completed files awaiting [`Self::drain_completed`].
    pending_completed: Vec<CompletedFile>,
    /// Scheduler round counter (0 = the roster/resume exchange).
    round: u64,
    runner: Runner,
}

impl<'a> CollectionClientMachine<'a> {
    /// Build the machine over the client's files `old` (a slice of
    /// entries, or [`FileRef`]s borrowed from wherever they live) and
    /// queue the roster message — plus a resume offer when `resume`
    /// holds a usable plan. `now_us` is the caller's clock reading, the
    /// origin for the first ARQ deadline.
    ///
    /// Plan entries are verified against `old` before being offered:
    /// only names whose local content actually carries the claimed
    /// digest go on the wire, so a stale checkpoint degrades to a
    /// smaller offer instead of corrupting the sync.
    ///
    /// # Errors
    /// [`SyncError::Config`] when `cfg` fails validation.
    pub fn new<F: Into<FileRef<'a>>>(
        old: impl IntoIterator<Item = F>,
        cfg: &'a ProtocolConfig,
        depth: usize,
        retry: RetryPolicy,
        rec: Recorder,
        resume: Option<&ResumePlan>,
        now_us: u64,
    ) -> Result<Self, SyncError> {
        let old: Vec<FileRef<'a>> = old.into_iter().map(Into::into).collect();
        cfg.validate().map_err(SyncError::Config)?;
        let mut arq = ArqCore::client(retry, rec.clone());
        let mut my_names: Vec<&str> = old.iter().map(|f| f.name).collect();
        my_names.sort_unstable();
        let mut message =
            vec![Part { phase: Phase::Setup, payload: encode_roster(&my_names).into() }];
        let mut offered: Vec<(String, Fingerprint)> = Vec::new();
        if let Some(plan) = resume {
            let by_name: HashMap<&str, &[u8]> = old.iter().map(|f| (f.name, f.data)).collect();
            offered = plan
                .entries
                .iter()
                .filter(|(name, digest)| {
                    by_name.get(name.as_str()).is_some_and(|data| file_fingerprint(data) == *digest)
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
            budget: WINDOW_BUDGET_BYTES,
            rec,
            arq,
            state: ClientState::AwaitRoster,
            server_names: Vec::new(),
            slots: Vec::new(),
            outbox: Vec::new(),
            parked: VecDeque::new(),
            expected: HashSet::new(),
            next_admit: 0,
            in_flight: 0,
            in_flight_bytes: 0,
            done_count: 0,
            deleted: 0,
            offered,
            pending_completed: Vec::new(),
            round: 0,
            runner: run_in_order,
        })
    }

    /// Draw encoded-frame buffers for this session from `pool`.
    pub fn set_pool(&mut self, pool: BufferPool) {
        self.arq.set_pool(pool);
    }

    /// Run each batch's per-file session work through `runner`.
    pub(crate) fn set_runner(&mut self, runner: Runner) {
        self.runner = runner;
    }

    /// The machine under a window budget small enough for a test
    /// collection to exceed (nothing is admitted before the roster
    /// reply, so setting it after `new` is setting it at construction).
    #[cfg(test)]
    fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Files completed since the last call, in completion order. The
    /// driver's durability hook applies and checkpoints them while the
    /// session keeps running; resumed files appear here too so a fresh
    /// checkpoint re-records them.
    pub fn drain_completed(&mut self) -> Vec<CompletedFile> {
        std::mem::take(&mut self.pending_completed)
    }

    /// Whether a session of `charge` content bytes fits the window: the
    /// budget holds, or the window is empty (a file larger than the
    /// whole budget runs alone).
    fn fits(&self, charge: u64) -> bool {
        self.in_flight_bytes == 0 || self.in_flight_bytes.saturating_add(charge) <= self.budget
    }

    fn charge(&mut self, id: usize, charge: u64) {
        self.slots[id].charged = charge;
        self.in_flight_bytes += charge;
    }

    fn release(&mut self, id: usize) {
        self.in_flight_bytes -= std::mem::take(&mut self.slots[id].charged);
    }

    /// Fill the window: parked sessions first, then unstarted files in
    /// roster order, while the byte budget (and the `depth` cap on open
    /// sessions) has room. Slots pre-completed by a resume verdict are
    /// skipped.
    fn admit(&mut self) {
        while let Some(&(id, _)) = self.parked.front() {
            let charge = self.slots[id].content_bytes();
            if !self.fits(charge) {
                return;
            }
            self.charge(id, charge);
            self.outbox.extend(self.parked.pop_front());
        }
        while self.next_admit < self.slots.len() && self.in_flight < self.depth {
            let id = self.next_admit;
            if self.slots[id].done.is_some() {
                self.next_admit += 1;
                continue;
            }
            let charge = self.slots[id].content_bytes();
            if !self.fits(charge) {
                return;
            }
            self.next_admit += 1;
            self.in_flight += 1;
            self.charge(id, charge);
            self.rec.record(EventKind::SessionStart { file_id: id as u64 });
            let slot = &mut self.slots[id];
            slot.t0_us = self.rec.now_micros();
            let mut session = ClientSession::new(slot.old_data, self.cfg);
            session.recorder = self.rec.clone();
            session.file_id = id as u64;
            let part = session.request();
            slot.session = Some(session);
            slot.stats.traffic.record(
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
                    let data = Arc::new(slot.old_data.to_vec());
                    slot.done = Some((Arc::clone(&data), false));
                    slot.resumed = true;
                    self.done_count += 1;
                    accepted += 1;
                    self.rec.record(EventKind::CacheHit { file_id: id as u64 });
                    self.pending_completed.push(CompletedFile {
                        file_id: id,
                        name: name.clone(),
                        data,
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
        let old_by_name: HashMap<&str, &'a [u8]> =
            self.old.iter().map(|f| (f.name, f.data)).collect();
        let server_set: HashSet<&str> = self.server_names.iter().map(String::as_str).collect();
        self.deleted = self.old.iter().filter(|f| !server_set.contains(f.name)).count();

        self.slots = self
            .server_names
            .iter()
            .map(|name| {
                let old_data = old_by_name.get(name.as_str()).copied();
                Slot {
                    session: None,
                    old_data: old_data.unwrap_or_default(),
                    existed: old_data.is_some(),
                    stats: SyncStats::default(),
                    done: None,
                    charged: 0,
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
        self.advance(now_us);
        Ok(())
    }

    /// Refill the window, report it, and send the next batch.
    fn advance(&mut self, now_us: u64) {
        self.admit();
        if self.rec.is_enabled() && !self.slots.is_empty() {
            self.rec.record(EventKind::WindowAdvance {
                in_flight: self.in_flight as u64,
                in_flight_bytes: self.in_flight_bytes,
                admitted: self.next_admit as u64,
                done: self.done_count as u64,
            });
        }
        self.flush(now_us);
    }

    /// A batch reply in three steps: check it and take out the sessions
    /// it answers, run one job per file, commit the results in wire
    /// order (the first failure in that order wins).
    fn on_batch(&mut self, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty batch reply"))?;
        let mut jobs = self.take_jobs(decode_batch(&part.payload)?)?;
        run_jobs(self.runner, &mut jobs);
        for job in jobs {
            self.commit(job)?;
        }
        self.advance(now_us);
        Ok(())
    }

    /// Refuse a reply that does not answer every file in flight exactly
    /// once — before any job runs — and take each answered session out
    /// of its slot.
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
            .map(|(id, parts)| {
                let slot =
                    self.slots.get_mut(id).ok_or(SyncError::Desync("batch id out of range"))?;
                for p in &parts {
                    slot.stats.traffic.record(
                        Direction::ServerToClient,
                        p.phase,
                        p.payload.len() as u64,
                    );
                }
                let session = slot.session.take().ok_or(SyncError::Desync("batch id not open"))?;
                Ok(ClientJob { id, session, parts, t0_us: slot.t0_us, result: Err(JOB_LOST) })
            })
            .collect()
    }

    /// Apply one file's step: close a finished session, or queue (or
    /// park) its reply.
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
                    resumed: false,
                    round: self.round,
                });
                slot.done = Some((data, fell_back));
                // Close the session, keeping only its statistics.
                slot.stats.levels = session.levels;
                slot.stats.known_bytes = session.map.known_bytes();
                slot.stats.delta_bytes = session.delta_bytes;
                self.release(id);
                self.in_flight -= 1;
                self.done_count += 1;
            }
            ClientAction::Reply(cparts) => {
                if cparts.is_empty() {
                    return Err(SyncError::Desync("session yielded no reply"));
                }
                for p in &cparts {
                    slot.stats.traffic.record(
                        Direction::ClientToServer,
                        p.phase,
                        p.payload.len() as u64,
                    );
                }
                slot.session = Some(session);
                // The first reply reveals the server's length; a session
                // the window has no room for at its real size waits its
                // turn (the server just sees no message for that file in
                // the meantime).
                let charge = slot.content_bytes();
                self.release(id);
                if self.fits(charge) {
                    self.charge(id, charge);
                    self.outbox.push((id, cparts));
                } else {
                    self.parked.push_back((id, cparts));
                }
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
        let mut resumed = 0usize;
        for (name, slot) in self.server_names.iter().zip(self.slots) {
            let (data, fb) = slot.done.ok_or(SyncError::Desync("file never completed"))?;
            if !slot.existed {
                created += 1;
            }
            if fb {
                fell_back += 1;
            }
            if slot.resumed {
                resumed += 1;
            } else if slot.existed && slot.stats.levels.is_empty() && *data == slot.old_data {
                unchanged += 1;
            }
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
    AwaitRoster,
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
/// the sorted roster order on the first message and indexes the
/// collection by it thereafter. The daemon guarantees this by binding
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
    rostered: bool,
    sessions: usize,
    quiet: u32,
    linger_frames: u32,
    runner: Runner,
    served: PhantomData<fn(&S)>,
}

impl<S: ServedFiles + ?Sized> CollectionServeMachine<S> {
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
            runner: run_in_order,
            served: PhantomData,
        })
    }

    /// Draw encoded-frame buffers for this session from `pool`.
    pub fn set_pool(&mut self, pool: BufferPool) {
        self.arq.set_pool(pool);
    }

    /// Run each batch's per-file session work through `runner`.
    pub(crate) fn set_runner(&mut self, runner: Runner) {
        self.runner = runner;
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
    fn eval_offer(&mut self, snap: &S, names: &[&str], payload: &[u8]) -> ResumeVerdict {
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

    fn on_roster(&mut self, snap: &S, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let roster_part = parts.first().ok_or(SyncError::Desync("empty client roster"))?;
        // The client's roster is advisory (it computes creates and
        // deletes itself); decoding it validates the handshake.
        decode_roster(&roster_part.payload)?;
        let mut order: Vec<usize> = (0..snap.file_count()).collect();
        order.sort_by_key(|&i| snap.file(i).name);
        let names: Vec<&str> = order.iter().map(|&i| snap.file(i).name).collect();
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

    /// A batch in three steps: check it and take out the sessions it
    /// addresses, run one job per file, commit the results in wire order
    /// (the first failure in that order wins) into the reply batch.
    fn on_batch(&mut self, snap: &S, parts: &[Part], now_us: u64) -> Result<(), SyncError> {
        let part = parts.first().ok_or(SyncError::Desync("empty batch message"))?;
        let mut jobs = self.take_jobs(snap, decode_batch(&part.payload)?)?;
        run_jobs(self.runner, &mut jobs);
        let mut out: Vec<(usize, Vec<Part>)> = Vec::with_capacity(jobs.len());
        for job in jobs {
            let reply = job.result?;
            self.sessions += usize::from(job.opens);
            self.slots[job.id] = if job.session.state == SState::Done {
                ServeSlot::Finished
            } else {
                ServeSlot::Running(job.session)
            };
            out.push((job.id, reply));
        }
        self.arq.send_message(
            vec![Part { phase: Phase::Map, payload: encode_batch(&out).into() }],
            now_us,
        );
        self.arq.begin_await(now_us);
        Ok(())
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
                        let session = match snap.hash_cache() {
                            Some(cache) => ServerSession::with_cache(
                                self.cfg.clone(),
                                SessionCache::new(
                                    Arc::clone(cache),
                                    snap.fingerprint(file_idx),
                                    self.cfg_digest,
                                    self.rec.clone(),
                                ),
                            ),
                            None => ServerSession::new(self.cfg.clone()),
                        };
                        (session, true)
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
            let deadline_us = now_us.saturating_add(micros_of(self.arq.retry().timeout));
            self.state = ServeState::Linger { deadline_us };
        }
    }
}

impl<S: ServedFiles + ?Sized> Machine for CollectionServeMachine<S> {
    type Ctx = S;

    fn on_frame(&mut self, snap: &S, bytes: &FrameBuf, now_us: u64) -> Result<(), SyncError> {
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

#[cfg(test)]
mod tests {
    use super::super::arq::encode_arq_frame_into;
    use super::*;
    use crate::pipeline::decode_batch;
    use msync_hash::file_fingerprint;
    use msync_protocol::{PhaseSplit, WireMeter};

    /// Deterministic incompressible bytes.
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
                // The roster is the first client frame; the rest are batches.
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
        resume: Option<&ResumePlan>,
    ) -> CollectionClientMachine<'a> {
        CollectionClientMachine::new(old, cfg, usize::MAX, RetryPolicy::default(), rec, resume, 0)
            .unwrap()
    }

    /// A batch as decoded: one message per file id.
    type Batch = Vec<(usize, Vec<Part>)>;

    /// `frame` with its batch rewritten by `edit`, at the same ARQ
    /// sequence, so the peer machine takes it as the next message.
    fn tampered(frame: &FrameBuf, edit: fn(&mut Batch)) -> FrameBuf {
        let arq = parse_frame(frame).expect("well-formed frame");
        let mut batch = decode_batch(&arq.part.payload).expect("a batch frame");
        edit(&mut batch);
        let part = Part { phase: arq.part.phase, payload: encode_batch(&batch).into() };
        let mut buf = Vec::new();
        encode_arq_frame_into(&mut buf, arq.seq, arq.idx, arq.more, &part);
        buf.into()
    }

    /// Entry `i` of `batch` once more, at the end.
    fn repeat_entry(batch: &mut Batch, i: usize) {
        let (id, parts) = &batch[i];
        let parts = parts.iter().map(|p| Part { phase: p.phase, payload: p.payload.share() });
        let again = (*id, parts.collect());
        batch.push(again);
    }

    /// Three edited files, and a client and a server for them that have
    /// exchanged rosters; returns the client's first batch frame.
    fn first_batch<'a>(
        old: &'a [FileEntry],
        cfg: &'a ProtocolConfig,
        snap: &CollectionSnapshot,
    ) -> (CollectionClientMachine<'a>, CollectionServeMachine, FrameBuf) {
        let mut client = client(old, cfg, Recorder::off(), None);
        let mut server =
            CollectionServeMachine::new(cfg, RetryPolicy::default(), Recorder::off(), 0).unwrap();
        for (frame, _) in transmissions(&mut client).1 {
            server.on_frame(snap, &frame, 0).expect("server takes the roster");
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
        let cases: [(fn(&mut Batch), &str); 3] = [
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

    #[test]
    fn client_refuses_a_reply_that_does_not_answer_each_file_in_flight_once() {
        let (old, new) = three_edited_files();
        let cfg = ProtocolConfig::default();
        let snap = CollectionSnapshot::new(new);
        let cases: [(fn(&mut Batch), &str); 4] = [
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
        // An empty request fails on its length, a truncated one on its
        // fingerprint: files 1 and 2 each get one, in both orders.
        fn truncated(b: &mut Batch, i: usize) {
            let request = &mut b[i].1[0].payload;
            *request = request.slice(0, request.len() - 1);
        }
        let cases: [(fn(&mut Batch), &str); 2] = [
            (
                |b| {
                    b[1].1[0].payload = Vec::new().into();
                    truncated(b, 2);
                },
                "request len",
            ),
            (
                |b| {
                    truncated(b, 1);
                    b[2].1[0].payload = Vec::new().into();
                },
                "request fp",
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
        // three the client lacks, whose 4 KB only the setup reply
        // reveals (they are admitted at one byte each and must park).
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
        let mut bounded = client(&old, &cfg, rec.clone(), None).with_budget(BUDGET);
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
        // Three sessions open at a byte each; at their revealed 4 KB two
        // fit and the third waits outside the window.
        assert!(windows.contains(&(3, 3)) && windows.contains(&(3, 8_000)), "{windows:?}");
        assert_eq!(windows.last(), Some(&(0, 0)), "everything is released at the end");

        // The budget, not the protocol, set that batch count: with room
        // for the whole roster the same sync needs far fewer.
        let mut roomy = client(&old, &cfg, Recorder::off(), None);
        let (roomy_batches, _) = drive(&mut roomy, &new, &cfg, |_| {});
        assert_eq!(roomy.finish(TrafficStats::new()).unwrap().files, new);
        assert!(batches >= 3 * roomy_batches, "{batches} batches vs {roomy_batches}");
    }

    #[test]
    fn completed_bytes_and_kept_bytes_are_one_allocation() {
        let (synced, same, resumed) = (blob(6_000, 1), blob(5_000, 2), blob(4_000, 3));
        let old = vec![
            FileEntry::new("resumed", resumed.clone()),
            FileEntry::new("same", same.clone()),
            FileEntry::new("synced", synced.clone()),
        ];
        let new = vec![
            FileEntry::new("resumed", resumed.clone()),
            FileEntry::new("same", same),
            FileEntry::new("synced", edited(&synced)),
        ];
        let cfg = ProtocolConfig::default();
        let mut plan = ResumePlan::new(&cfg);
        plan.add("resumed", file_fingerprint(&resumed));

        let mut machine = client(&old, &cfg, Recorder::off(), Some(&plan));
        let mut completed: Vec<CompletedFile> = Vec::new();
        drive(&mut machine, &new, &cfg, |m| completed.extend(m.drain_completed()));
        completed.sort_by_key(|f| f.file_id);
        assert_eq!(
            completed.iter().map(|f| (f.name.as_str(), f.resumed)).collect::<Vec<_>>(),
            [("resumed", true), ("same", false), ("synced", false)]
        );
        let mut kept = Vec::new();
        for f in &completed {
            let (data, _) = machine.slots[f.file_id].done.as_ref().expect("completed");
            assert!(Arc::ptr_eq(&f.data, data), "{}: the sink's bytes were copied", f.name);
            kept.push(data.as_ptr());
        }
        // With the sink's handles gone, `finish` hands the same
        // allocations out instead of copying them.
        drop(completed);
        let out = machine.finish(TrafficStats::new()).unwrap();
        assert_eq!(out.files, new);
        assert_eq!((out.resumed, out.unchanged), (1, 1));
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
        let mut machine = client(&old, &cfg, Recorder::off(), None);
        let (_, frames) = drive(&mut machine, &new, &cfg, |_| {});
        let out = machine.finish(TrafficStats::new()).unwrap();
        assert_eq!(out.files, new);

        // Frame by frame: each phase is charged its parts' payload, and
        // the framing goes to one phase holding the largest share.
        let phases = [Phase::Setup, Phase::Map, Phase::Delta, Phase::Resume];
        let both = |t: &TrafficStats, p| t.c2s(p) + t.s2c(p);
        let (mut charged, mut shares) = (WireMeter::default(), TrafficStats::new());
        for (dir, frame, split) in &frames {
            let part = parse_frame(frame).expect("well-formed frame").part;
            let mut parts = TrafficStats::new();
            if part.phase == Phase::Map {
                for p in decode_batch(&part.payload).unwrap().into_iter().flat_map(|f| f.1) {
                    parts.record(*dir, p.phase, p.payload.len() as u64);
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
        // Summed, the parts are exactly the files' own payload bytes: a
        // collection's traffic by phase is Σ per_file plus framing.
        let mut per_file = TrafficStats::new();
        for (_, stats) in &out.per_file {
            per_file.merge(&stats.traffic);
        }
        assert_eq!(shares, per_file);
        assert!(per_file.s2c(Phase::Delta) > 0);
        // And the in-process pump charges exactly these frames.
        let pumped = crate::pipeline::sync_collection(&old, &new, &cfg).unwrap().traffic;
        assert_eq!(pumped, charged.stats());
    }
}
