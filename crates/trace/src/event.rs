//! The typed span-event taxonomy.
//!
//! Every observable protocol moment is one [`EventKind`] variant with
//! flat `u64`/`bool`/tag fields — no payload bytes, no strings — so an
//! event is cheap to record and renders to one self-describing JSONL
//! line ([`crate::journal`]). The byte-carrying variants
//! ([`EventKind::FrameSend`]/[`EventKind::FrameRecv`]) are emitted at
//! exactly the call sites that charge `TrafficStats`, which is what
//! makes a journal's per-direction-per-phase byte sums equal the run's
//! traffic accounting on clean links.

/// Traffic direction, mirroring `msync_protocol::Direction` without
/// depending on it (this crate is dependency-free; the protocol crate
/// provides the conversions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirTag {
    /// Client → server.
    C2s,
    /// Server → client.
    S2c,
}

impl DirTag {
    /// Stable journal token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            DirTag::C2s => "c2s",
            DirTag::S2c => "s2c",
        }
    }

    /// Index into `[dir][phase]` metric grids.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            DirTag::C2s => 0,
            DirTag::S2c => 1,
        }
    }
}

/// Protocol phase, mirroring `msync_protocol::Phase`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseTag {
    /// Handshake / metadata exchange.
    Setup,
    /// Map construction rounds.
    Map,
    /// Delta transfer.
    Delta,
    /// No longer charged by the protocol; kept while the benchmark
    /// reads it.
    Resume,
}

impl PhaseTag {
    /// Stable journal token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            PhaseTag::Setup => "setup",
            PhaseTag::Map => "map",
            PhaseTag::Delta => "delta",
            PhaseTag::Resume => "resume",
        }
    }

    /// Index into `[dir][phase]` metric grids.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            PhaseTag::Setup => 0,
            PhaseTag::Map => 1,
            PhaseTag::Delta => 2,
            PhaseTag::Resume => 3,
        }
    }
}

/// The fault classes of `msync_protocol::fault`, as journal tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Frame silently lost.
    Drop,
    /// One bit flipped.
    Corrupt,
    /// Cut to a proper prefix.
    Truncate,
    /// Delivered twice.
    Duplicate,
    /// Held past the next same-direction frame.
    Delay,
    /// Link cut starting with this frame.
    Disconnect,
}

impl FaultKind {
    /// Stable journal token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Truncate => "truncate",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Delay => "delay",
            FaultKind::Disconnect => "disconnect",
        }
    }
}

/// One traced protocol moment. `file_id` is the session's index in its
/// collection roster (0 for single-file syncs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A per-file sync session began.
    SessionStart {
        /// Roster index of the file.
        file_id: u64,
    },
    /// A per-file sync session finished.
    SessionEnd {
        /// Roster index of the file.
        file_id: u64,
        /// Whether the session completed without error.
        ok: bool,
        /// Whether it fell back to a full transfer.
        fell_back: bool,
    },
    /// One map-construction round (one block size) completed.
    MapRound {
        /// Roster index of the file.
        file_id: u64,
        /// Block size of the round.
        block_size: u64,
        /// Items hashed this round.
        items: u64,
        /// Items whose hash found a candidate position.
        candidates: u64,
    },
    /// One verification batch resolved.
    VerifyBatch {
        /// Roster index of the file.
        file_id: u64,
        /// Candidates entering verification.
        candidates: u64,
        /// Candidates confirmed as matches.
        confirmed: u64,
    },
    /// The delta phase delivered its payload.
    DeltaPhase {
        /// Roster index of the file.
        file_id: u64,
        /// Size of the delta the server sent.
        delta_bytes: u64,
    },
    /// Wire bytes charged on send, with phase attribution.
    FrameSend {
        /// Direction the bytes travel.
        dir: DirTag,
        /// Phase the bytes are charged to.
        phase: PhaseTag,
        /// Full wire size charged.
        bytes: u64,
    },
    /// Received wire bytes attributed to a phase.
    FrameRecv {
        /// Direction the bytes traveled.
        dir: DirTag,
        /// Phase the bytes are charged to.
        phase: PhaseTag,
        /// Full wire size charged.
        bytes: u64,
    },
    /// The ARQ layer re-sent cached frames.
    Retransmit {
        /// Frames retransmitted in this burst.
        frames: u64,
    },
    /// A receive deadline expired and the timeout was grown.
    Backoff {
        /// 1-based retry attempt number.
        attempt: u64,
        /// The deadline that just expired, in microseconds.
        timeout_us: u64,
    },
    /// The deterministic fault injector assigned a frame a fate.
    FaultInjected {
        /// Direction of the afflicted frame.
        dir: DirTag,
        /// Which fault class fired.
        kind: FaultKind,
        /// 1-based frame index within this direction's injector.
        seq: u64,
    },
    /// A network handshake concluded.
    Handshake {
        /// Whether both sides agreed on a configuration.
        ok: bool,
    },
    /// The pipelined collection scheduler moved its window.
    WindowAdvance {
        /// Sessions currently in flight.
        in_flight: u64,
        /// Content bytes those sessions hold of the window's byte budget.
        in_flight_bytes: u64,
        /// Files admitted so far.
        admitted: u64,
        /// Files finished so far.
        done: u64,
    },
    /// The client's own copy satisfied one file: its fingerprint
    /// matched the roster's, so the file completed with no session.
    CacheHit {
        /// Roster index of the file.
        file_id: u64,
    },
    /// The server's cross-session hash cache already held a map-phase
    /// artifact (block hash tree or verification hash); no bytes were
    /// rehashed for it.
    HashCacheHit {
        /// Source bytes the cached artifact covers (work avoided).
        bytes: u64,
    },
    /// The server's cross-session hash cache missed; the artifact was
    /// computed from the file data and inserted for later sessions.
    HashCacheMiss {
        /// Source bytes actually hashed to build the artifact.
        bytes: u64,
    },
    /// A map-phase block digest was obtained by sibling decomposition —
    /// parent digest minus the other child — instead of scanning the
    /// bytes; the result was inserted into the cache for later
    /// sessions.
    HashCacheDerived {
        /// Source bytes the derivation covered without scanning.
        bytes: u64,
    },
    /// The slow-session watchdog found a session stuck in one protocol
    /// phase past the configured threshold. Fires at most once per
    /// phase entry, so a journal shows each distinct stall, not a
    /// repeating alarm.
    SlowSession {
        /// The phase the session has been stuck in.
        phase: PhaseTag,
        /// Microseconds spent in that phase when the watchdog fired.
        waited_us: u64,
    },
}

impl EventKind {
    /// Stable journal token naming this variant.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::SessionStart { .. } => "session_start",
            EventKind::SessionEnd { .. } => "session_end",
            EventKind::MapRound { .. } => "map_round",
            EventKind::VerifyBatch { .. } => "verify_batch",
            EventKind::DeltaPhase { .. } => "delta_phase",
            EventKind::FrameSend { .. } => "frame_send",
            EventKind::FrameRecv { .. } => "frame_recv",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::Backoff { .. } => "backoff",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::Handshake { .. } => "handshake",
            EventKind::WindowAdvance { .. } => "window_advance",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::HashCacheHit { .. } => "hash_cache_hit",
            EventKind::HashCacheMiss { .. } => "hash_cache_miss",
            EventKind::HashCacheDerived { .. } => "hash_cache_derived",
            EventKind::SlowSession { .. } => "slow_session",
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Microseconds since the recorder's clock epoch.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_stable() {
        assert_eq!(DirTag::C2s.as_str(), "c2s");
        assert_eq!(PhaseTag::Delta.as_str(), "delta");
        assert_eq!(FaultKind::Disconnect.as_str(), "disconnect");
        assert_eq!(PhaseTag::Resume.as_str(), "resume");
        assert_eq!(EventKind::Handshake { ok: true }.name(), "handshake");
        assert_eq!(EventKind::CacheHit { file_id: 0 }.name(), "cache_hit");
        assert_eq!(EventKind::HashCacheHit { bytes: 9 }.name(), "hash_cache_hit");
        assert_eq!(EventKind::HashCacheMiss { bytes: 9 }.name(), "hash_cache_miss");
        assert_eq!(EventKind::HashCacheDerived { bytes: 9 }.name(), "hash_cache_derived");
        assert_eq!(
            EventKind::SlowSession { phase: PhaseTag::Map, waited_us: 5_000_000 }.name(),
            "slow_session"
        );
        assert_eq!(
            EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Map, bytes: 1 }.name(),
            "frame_send"
        );
    }

    #[test]
    fn grid_indices_cover_the_grid() {
        assert_eq!(DirTag::C2s.index(), 0);
        assert_eq!(DirTag::S2c.index(), 1);
        assert_eq!(PhaseTag::Setup.index(), 0);
        assert_eq!(PhaseTag::Map.index(), 1);
        assert_eq!(PhaseTag::Delta.index(), 2);
        assert_eq!(PhaseTag::Resume.index(), 3);
    }
}
