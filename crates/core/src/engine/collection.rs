//! Pipelined collection synchronization as sans-IO machines.
//!
//! [`CollectionClientMachine`] and [`CollectionServeMachine`] carry the
//! wire schedule documented in [`crate::pipeline`]: an empty opener,
//! the server's roster of weak fingerprints, then batch frames holding
//! one round message per changed file in the window, one ARQ message per
//! direction per flush. The roster settles every unchanged file before
//! any session opens, provisionally until the group verdict in the
//! first reply confirms it. The window is the client's alone: it admits
//! changed files in roster order while the content bytes of open
//! sessions fit [`WINDOW_BUDGET_BYTES`]. The blocking
//! [`sync_collection_client`](crate::pipeline) /
//! [`serve_collection`](crate::pipeline) drivers pump these machines
//! over a `Transport`; the `msync-net` daemon multiplexes many
//! [`CollectionServeMachine`]s on a fixed worker pool.

use std::collections::{HashMap, HashSet, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

use msync_hash::{file_fingerprint, Fingerprint};
use msync_protocol::{BufferPool, Direction, FrameBuf, Phase, RetryPolicy, TrafficStats};
use msync_trace::{EventKind, HistKind, Recorder};

use super::arq::{micros_of, parse_frame, split_of, ArqCore, MAX_FRAMES_PER_EXCHANGE};
use super::{run_in_order, run_jobs, FnJob, Job, Machine, Output, Runner};
use crate::collection::{CollectionOutcome, FileEntry, FileRef};
use crate::config::ProtocolConfig;
use crate::params::config_digest;
use crate::pipeline::{
    decode_batch, decode_roster, decode_verdict, encode_batch, encode_roster, settle,
    weak_fp_bytes, Batch, GroupCheck, ServeOutcome, WINDOW_BUDGET_BYTES,
};
use crate::session::{ClientAction, ClientSession, Part, SState, ServerSession, SyncError};
use crate::snapshot::{CollectionSnapshot, ServedFiles, SessionCache};
use crate::stats::SyncStats;

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
    fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
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
        let roster = decode_roster(&roster_part.payload)?;
        self.weak = weak_fp_bytes(roster.len());
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
    fn on_verdict(&mut self, salvage: Option<FrameBuf>) {
        let weak = self.weak;
        let rest = Fingerprint::WIRE_LEN - weak;
        for (i, (id, local)) in std::mem::take(&mut self.provisional).into_iter().enumerate() {
            if let Some(salvage) = &salvage {
                let slot = &mut self.slots[id];
                slot.new_fp.0[weak..].copy_from_slice(&salvage[i * rest..(i + 1) * rest]);
                slot.fp_whole = true;
                if slot.new_fp != local {
                    self.queue.push_back(id);
                    continue;
                }
            }
            self.complete_unchanged(id);
        }
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
            (true, Some(check)) => Some(decode_verdict(
                &check.payload,
                self.provisional.len(),
                Fingerprint::WIRE_LEN - self.weak,
            )?),
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
            self.on_verdict(salvage);
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
                for p in &parts {
                    slot.stats.traffic.record(
                        Direction::ServerToClient,
                        p.phase,
                        p.payload.len() as u64,
                    );
                }
                let mut session =
                    slot.session.take().ok_or(SyncError::Desync("batch id not open"))?;
                if !slot.fp_whole {
                    let rest = Fingerprint::WIRE_LEN - self.weak;
                    let first = parts
                        .first_mut()
                        .filter(|first| first.payload.len() >= rest)
                        .ok_or(SyncError::Desync("first reply lacks the fingerprint remainder"))?;
                    slot.new_fp.0[self.weak..].copy_from_slice(&first.payload[..rest]);
                    first.payload = first.payload.slice(rest, first.payload.len());
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
                for p in &cparts {
                    slot.stats.traffic.record(
                        Direction::ClientToServer,
                        p.phase,
                        p.payload.len() as u64,
                    );
                }
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
    rostered: bool,
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

    /// Run the roster's fingerprinting and each batch's per-file session
    /// work through `runner`.
    pub(crate) fn set_runner(&mut self, runner: Runner) {
        self.runner = runner;
    }

    /// What this connection amounted to. `files_in_collection` is the
    /// served collection's size (used when the peer vanished before the
    /// roster); `traffic` is the transport's wire accounting.
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
        let roster = Part { phase: Phase::Setup, payload: encode_roster(&files).into() };
        self.slots = (0..order.len()).map(|_| ServeSlot::Idle).collect();
        self.fps = files.iter().map(|&(_, _, fp)| fp).collect();
        self.weak = weak_fp_bytes(order.len());
        self.told = vec![false; order.len()];
        self.order = order;
        self.arq.send_message(vec![roster], now_us);
        self.rostered = true;
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
                let mut payload = self.fps[job.id].0[self.weak..].to_vec();
                payload.extend_from_slice(&first.payload);
                first.payload = payload.into();
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
    use msync_hash::BitWriter;
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
        let mut buf = Vec::new();
        encode_arq_frame_into(
            &mut buf,
            arq.seq,
            arq.idx,
            arq.more,
            &Part { phase: arq.part.phase, payload },
        );
        buf.into()
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
        let mut buf = Vec::new();
        encode_arq_frame_into(
            &mut buf,
            1,
            0,
            false,
            &Part { phase: Phase::Setup, payload: payload.into() },
        );
        buf.into()
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
        for (count, entries, refusal) in cases {
            let weak = weak_fp_bytes(usize::try_from(count).unwrap());
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
        let weak = weak_fp_bytes(2_000);
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

    /// Holds the roster's weak width at `bytes` on this thread while
    /// alive.
    struct ForcedWeak;

    impl ForcedWeak {
        fn set(bytes: usize) -> Self {
            crate::pipeline::FORCED_WEAK_BYTES.with(|w| w.set(Some(bytes)));
            Self
        }
    }

    impl Drop for ForcedWeak {
        fn drop(&mut self) {
            crate::pipeline::FORCED_WEAK_BYTES.with(|w| w.set(None));
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
            let _forced = forced.map(ForcedWeak::set);
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
            let (data, _) = machine.slots[f.file_id].done.as_ref().expect("completed");
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
