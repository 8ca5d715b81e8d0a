//! Live per-session status, derived from the events a session already
//! records.
//!
//! The daemon needs a *live* answer to "what is this session doing
//! right now" without adding instrumentation: every interesting moment
//! already flows through [`crate::Recorder::record`]. A
//! [`StatusHandle`] is attached to a session's recorder
//! ([`crate::Recorder::set_status`]) and folds each recorded event into
//! a small [`SessionStatus`] struct under the recorder's existing
//! lock discipline — no new charge points, no second source of truth.
//! The [`StatusBoard`] holds only weak references, so a session that
//! finishes (dropping its connection, recorder, and handle) vanishes
//! from the board on the next snapshot without explicit deregistration.
//!
//! The same struct powers the slow-session watchdog:
//! [`StatusHandle::check_slow`] compares the time spent in the current
//! protocol phase against a threshold and fires at most once per phase
//! entry, so a stalled session produces one alarm per stall, not a
//! repeating klaxon.

use crate::clock::Clock;
use crate::event::{EventKind, PhaseTag};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// A point-in-time view of one live session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStatus {
    /// Board-assigned session id (monotonic per daemon).
    pub id: u64,
    /// Collection bound at handshake; empty until the hello resolves.
    pub collection: String,
    /// Peer address as reported by the socket.
    pub peer: String,
    /// The protocol phase of the most recent wire activity.
    pub phase: PhaseTag,
    /// Files confirmed finished (session ends + roster matches).
    pub files_done: u64,
    /// Files known to be in play (0 when the roster size is unknown,
    /// e.g. server-side sessions before any window report).
    pub files_total: u64,
    /// Content bytes the pipeline window holds in open file sessions
    /// (the latest window report; 0 on sessions that report none).
    pub in_flight_bytes: u64,
    /// Wire bytes received from the peer.
    pub bytes_in: u64,
    /// Wire bytes sent to the peer.
    pub bytes_out: u64,
    /// Frames retransmitted by the ARQ layer.
    pub retransmits: u64,
    /// Client metadata-cache plus server hash-cache hits.
    pub cache_hits: u64,
    /// Clock reading when the session registered.
    pub started_us: u64,
    /// Clock reading when the current phase was entered.
    pub phase_entered_us: u64,
    /// Clock reading of the most recent event.
    pub last_event_us: u64,
    /// Whether the watchdog already fired for the current phase entry.
    pub slow_flagged: bool,
}

impl SessionStatus {
    fn new(id: u64, peer: String, now_us: u64) -> Self {
        SessionStatus {
            id,
            collection: String::new(),
            peer,
            phase: PhaseTag::Setup,
            files_done: 0,
            files_total: 0,
            in_flight_bytes: 0,
            bytes_in: 0,
            bytes_out: 0,
            retransmits: 0,
            cache_hits: 0,
            started_us: now_us,
            phase_entered_us: now_us,
            last_event_us: now_us,
            slow_flagged: false,
        }
    }

    fn enter_phase(&mut self, phase: PhaseTag, t_us: u64) {
        if self.phase != phase {
            self.phase = phase;
            self.phase_entered_us = t_us;
            self.slow_flagged = false;
        }
    }

    /// Fold one recorded event in. Only fields derivable from the
    /// existing event stream move; everything else is metadata set at
    /// registration.
    fn apply(&mut self, t_us: u64, kind: &EventKind) {
        self.last_event_us = t_us;
        match *kind {
            EventKind::FrameSend { phase, bytes, .. } => {
                self.bytes_out += bytes;
                self.enter_phase(phase, t_us);
            }
            EventKind::FrameRecv { phase, bytes, .. } => {
                self.bytes_in += bytes;
                self.enter_phase(phase, t_us);
            }
            EventKind::Retransmit { frames } => self.retransmits += frames,
            EventKind::SessionStart { file_id } => {
                self.files_total = self.files_total.max(file_id + 1);
            }
            EventKind::SessionEnd { .. } => self.files_done += 1,
            EventKind::WindowAdvance { in_flight_bytes, admitted, done, .. } => {
                self.files_total = self.files_total.max(admitted);
                self.files_done = self.files_done.max(done);
                self.in_flight_bytes = in_flight_bytes;
            }
            EventKind::CacheHit { .. } => {
                self.files_done += 1;
                self.cache_hits += 1;
            }
            EventKind::HashCacheHit { .. } => self.cache_hits += 1,
            _ => {}
        }
    }
}

/// A cheap clonable handle onto one session's live status slot.
#[derive(Clone)]
pub struct StatusHandle {
    slot: Arc<Mutex<SessionStatus>>,
}

impl StatusHandle {
    fn lock(&self) -> std::sync::MutexGuard<'_, SessionStatus> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold one recorded event into the status (called by the
    /// recorder, under its own lock, at every existing charge point).
    pub fn apply(&self, t_us: u64, kind: &EventKind) {
        self.lock().apply(t_us, kind);
    }

    /// Record which collection the session bound at handshake.
    pub fn set_collection(&self, name: &str) {
        self.lock().collection = name.to_owned();
    }

    /// Copy of the current status.
    #[must_use]
    pub fn snapshot(&self) -> SessionStatus {
        self.lock().clone()
    }

    /// Watchdog check: if the session has sat in its current phase
    /// longer than `threshold_us` and no alarm fired for this phase
    /// entry yet, flag it and return `(phase, waited_us)`. Subsequent
    /// calls return `None` until the session changes phase.
    #[must_use]
    pub fn check_slow(&self, now_us: u64, threshold_us: u64) -> Option<(PhaseTag, u64)> {
        let mut st = self.lock();
        let waited = now_us.saturating_sub(st.phase_entered_us);
        if !st.slow_flagged && waited > threshold_us {
            st.slow_flagged = true;
            Some((st.phase, waited))
        } else {
            None
        }
    }
}

impl std::fmt::Debug for StatusHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.lock();
        f.debug_struct("StatusHandle").field("id", &st.id).field("phase", &st.phase).finish()
    }
}

struct BoardInner {
    next_id: u64,
    slots: Vec<Weak<Mutex<SessionStatus>>>,
}

/// The daemon-wide registry of live session statuses.
pub struct StatusBoard {
    clock: Arc<dyn Clock>,
    inner: Mutex<BoardInner>,
}

impl StatusBoard {
    /// A new empty board stamping registrations with `clock` — the
    /// same clock the sessions' recorders use, so ages and phase
    /// durations share one epoch.
    #[must_use]
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        StatusBoard { clock, inner: Mutex::new(BoardInner { next_id: 1, slots: Vec::new() }) }
    }

    /// Register a new session, returning its live handle. Dead slots
    /// (sessions whose handles were all dropped) are pruned on the way.
    pub fn register(&self, peer: &str) -> StatusHandle {
        let now_us = self.clock.now_micros();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.slots.retain(|w| w.strong_count() > 0);
        let id = inner.next_id;
        inner.next_id += 1;
        let slot = Arc::new(Mutex::new(SessionStatus::new(id, peer.to_owned(), now_us)));
        inner.slots.push(Arc::downgrade(&slot));
        StatusHandle { slot }
    }

    /// Snapshot every live session, sorted by id. Dead slots are pruned.
    #[must_use]
    pub fn snapshot(&self) -> Vec<SessionStatus> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.slots.retain(|w| w.strong_count() > 0);
        let mut out: Vec<SessionStatus> = inner
            .slots
            .iter()
            .filter_map(Weak::upgrade)
            .map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        out.sort_by_key(|s| s.id);
        out
    }

    /// Number of live sessions.
    #[must_use]
    pub fn active(&self) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.slots.retain(|w| w.strong_count() > 0);
        inner.slots.len()
    }

    /// The board's clock reading (shared with its sessions).
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }
}

impl std::fmt::Debug for StatusBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusBoard").field("active", &self.active()).finish()
    }
}

/// Render a session table as the `sessions` admin payload: one
/// `key=value` line per session, whitespace-splittable (no value the
/// daemon emits contains spaces), sorted by id.
#[must_use]
pub fn render_sessions(sessions: &[SessionStatus], now_us: u64) -> String {
    let mut out = String::new();
    for s in sessions {
        let _ = writeln!(
            out,
            "id={} collection={} peer={} phase={} files_done={} files_total={} \
             in_flight_bytes={} bytes_in={} bytes_out={} retransmits={} cache_hits={} age_us={} \
             phase_age_us={} slow={}",
            s.id,
            if s.collection.is_empty() { "-" } else { &s.collection },
            if s.peer.is_empty() { "-" } else { &s.peer },
            s.phase.as_str(),
            s.files_done,
            s.files_total,
            s.in_flight_bytes,
            s.bytes_in,
            s.bytes_out,
            s.retransmits,
            s.cache_hits,
            now_us.saturating_sub(s.started_us),
            now_us.saturating_sub(s.phase_entered_us),
            s.slow_flagged,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::event::DirTag;

    fn board() -> (StatusBoard, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::fixed(1_000));
        (StatusBoard::new(clock.clone()), clock)
    }

    #[test]
    fn events_drive_the_status_fields() {
        let (board, _clock) = board();
        let h = board.register("127.0.0.1:9");
        h.set_collection("crawl");
        h.apply(
            1_010,
            &EventKind::FrameRecv { dir: DirTag::C2s, phase: PhaseTag::Setup, bytes: 40 },
        );
        h.apply(1_020, &EventKind::FrameSend { dir: DirTag::S2c, phase: PhaseTag::Map, bytes: 70 });
        h.apply(1_030, &EventKind::Retransmit { frames: 2 });
        h.apply(1_040, &EventKind::HashCacheHit { bytes: 4096 });
        h.apply(1_050, &EventKind::CacheHit { file_id: 4 });
        h.apply(
            1_050,
            &EventKind::WindowAdvance {
                in_flight: 2,
                in_flight_bytes: 9_000,
                admitted: 5,
                done: 3,
            },
        );
        let s = h.snapshot();
        assert_eq!(s.collection, "crawl");
        assert_eq!(s.peer, "127.0.0.1:9");
        assert_eq!(s.phase, PhaseTag::Map);
        assert_eq!(s.phase_entered_us, 1_020);
        assert_eq!(s.bytes_in, 40);
        assert_eq!(s.bytes_out, 70);
        assert_eq!(s.retransmits, 2);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.files_done, 3);
        assert_eq!(s.files_total, 5);
        assert_eq!(s.in_flight_bytes, 9_000);
        assert_eq!(s.last_event_us, 1_050);
    }

    #[test]
    fn board_assigns_ids_and_prunes_dropped_sessions() {
        let (board, _clock) = board();
        let a = board.register("peer-a");
        let b = board.register("peer-b");
        assert_eq!(board.active(), 2);
        let snap = board.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].id, snap[1].id), (1, 2));
        drop(a);
        assert_eq!(board.active(), 1);
        assert_eq!(board.snapshot()[0].peer, "peer-b");
        drop(b);
        assert!(board.snapshot().is_empty());
        // Ids keep counting up; no reuse after pruning.
        assert_eq!(board.register("peer-c").snapshot().id, 3);
    }

    #[test]
    fn watchdog_fires_once_per_phase_entry() {
        let (board, _clock) = board();
        let h = board.register("p");
        // Registered at t=1000, Setup phase. Threshold 500µs.
        assert_eq!(h.check_slow(1_400, 500), None);
        assert_eq!(h.check_slow(1_600, 500), Some((PhaseTag::Setup, 600)));
        // Flagged: no refire while still in Setup.
        assert_eq!(h.check_slow(9_999, 500), None);
        // Entering a new phase rearms the watchdog.
        h.apply(10_000, &EventKind::FrameSend { dir: DirTag::S2c, phase: PhaseTag::Map, bytes: 1 });
        assert_eq!(h.check_slow(10_100, 500), None);
        assert_eq!(h.check_slow(10_700, 500), Some((PhaseTag::Map, 700)));
    }

    #[test]
    fn session_table_renders_one_line_per_session() {
        let (board, _clock) = board();
        let h = board.register("127.0.0.1:5000");
        h.set_collection("docs");
        h.apply(1_500, &EventKind::FrameSend { dir: DirTag::S2c, phase: PhaseTag::Map, bytes: 9 });
        let text = render_sessions(&board.snapshot(), 2_000);
        assert_eq!(text.lines().count(), 1);
        let line = text.lines().next().unwrap();
        assert!(line.contains("id=1"), "{line}");
        assert!(line.contains("collection=docs"), "{line}");
        assert!(line.contains("peer=127.0.0.1:5000"), "{line}");
        assert!(line.contains("phase=map"), "{line}");
        assert!(line.contains("in_flight_bytes=0"), "{line}");
        assert!(line.contains("bytes_out=9"), "{line}");
        assert!(line.contains("age_us=1000"), "{line}");
        assert!(line.contains("phase_age_us=500"), "{line}");
    }
}
