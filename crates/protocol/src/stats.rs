//! Traffic accounting.
//!
//! Every figure in the paper's evaluation is a statement about *bytes on
//! the wire per direction* (e.g. Figure 6.1 stacks client→server and
//! server→client map-phase traffic and the final delta separately), so
//! the accounting is first-class: channels attribute every frame to a
//! `(direction, phase)` pair, and every transport does so through the
//! one [`WireMeter`].

use crate::channel::frame_wire_size;
use msync_trace::{DirTag, EventKind, PhaseTag, Recorder};
use std::fmt;

/// Transfer direction, named from the synchronization client's viewpoint
/// (the client holds the outdated file, the server the current one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server (e.g. rsync's block hashes, msync's verification
    /// hashes and bitmaps).
    ClientToServer,
    /// Server → client (e.g. msync's candidate hashes, the final delta).
    ServerToClient,
}

/// Protocol phase a frame belongs to, used to split costs the way the
/// paper's stacked bars do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Per-file fingerprints and session setup.
    Setup,
    /// The multi-round map-construction phase.
    Map,
    /// The final delta transfer.
    Delta,
    /// The crash-recovery extension: resume offers and verdicts
    /// (checkpoint/cache digests presented by a reconnecting client and
    /// the server's accept bitmap or typed rejection).
    Resume,
}

impl From<Direction> for DirTag {
    fn from(d: Direction) -> Self {
        match d {
            Direction::ClientToServer => DirTag::C2s,
            Direction::ServerToClient => DirTag::S2c,
        }
    }
}

impl From<Phase> for PhaseTag {
    fn from(p: Phase) -> Self {
        match p {
            Phase::Setup => PhaseTag::Setup,
            Phase::Map => PhaseTag::Map,
            Phase::Delta => PhaseTag::Delta,
            Phase::Resume => PhaseTag::Resume,
        }
    }
}

const PHASES: usize = 4;

#[inline]
fn phase_idx(p: Phase) -> usize {
    match p {
        Phase::Setup => 0,
        Phase::Map => 1,
        Phase::Delta => 2,
        Phase::Resume => 3,
    }
}

/// Byte and roundtrip counts for one synchronization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    c2s: [u64; PHASES],
    s2c: [u64; PHASES],
    /// Number of communication roundtrips (direction reversals seen by
    /// the channel, divided by two, rounded up).
    pub roundtrips: u32,
    /// Frames actually transmitted by the channel (including duplicates
    /// injected by faults and retransmissions; zero for estimators that
    /// only call [`TrafficStats::record`]).
    pub frames: u64,
    /// Frames the session layer retransmitted while recovering from
    /// loss or corruption. Their bytes are already included in the
    /// per-phase counters — this makes the recovery overhead visible.
    pub retransmits: u64,
}

impl TrafficStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` sent in `dir` during `phase`.
    pub fn record(&mut self, dir: Direction, phase: Phase, bytes: u64) {
        match dir {
            Direction::ClientToServer => self.c2s[phase_idx(phase)] += bytes,
            Direction::ServerToClient => self.s2c[phase_idx(phase)] += bytes,
        }
    }

    /// Bytes sent client→server in `phase`.
    pub fn c2s(&self, phase: Phase) -> u64 {
        self.c2s[phase_idx(phase)]
    }

    /// Bytes sent server→client in `phase`.
    pub fn s2c(&self, phase: Phase) -> u64 {
        self.s2c[phase_idx(phase)]
    }

    /// Total client→server bytes.
    pub fn total_c2s(&self) -> u64 {
        self.c2s.iter().sum()
    }

    /// Total server→client bytes.
    pub fn total_s2c(&self) -> u64 {
        self.s2c.iter().sum()
    }

    /// Total bytes in both directions — the headline cost number.
    pub fn total_bytes(&self) -> u64 {
        self.total_c2s() + self.total_s2c()
    }

    /// Merge another run's stats into this one (collection totals).
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..PHASES {
            self.c2s[i] += other.c2s[i];
            self.s2c[i] += other.s2c[i];
        }
        self.roundtrips = self.roundtrips.max(other.roundtrips);
        self.frames += other.frames;
        self.retransmits += other.retransmits;
    }

    /// Render the per-phase byte grid as an aligned multi-line table —
    /// the canonical report format shared by `msync sync` and the
    /// serve daemon's session log.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("  {:<8} {:>12} {:>12} {:>12}\n", "phase", "c→s", "s→c", "total"));
        for (name, phase) in [
            ("setup", Phase::Setup),
            ("map", Phase::Map),
            ("delta", Phase::Delta),
            ("resume", Phase::Resume),
        ] {
            out.push_str(&format!(
                "  {:<8} {:>12} {:>12} {:>12}\n",
                name,
                human_bytes(self.c2s(phase)),
                human_bytes(self.s2c(phase)),
                human_bytes(self.c2s(phase) + self.s2c(phase)),
            ));
        }
        out.push_str(&format!(
            "  {:<8} {:>12} {:>12} {:>12}\n",
            "total",
            human_bytes(self.total_c2s()),
            human_bytes(self.total_s2c()),
            human_bytes(self.total_bytes()),
        ));
        out.push_str(&format!(
            "  {} roundtrips · {} frames · {} retransmitted\n",
            self.roundtrips, self.frames, self.retransmits
        ));
        out
    }
}

/// The one place wire bytes enter a [`TrafficStats`]. Every transport —
/// the in-memory channel, the blocking TCP transport, each of the
/// daemon's multiplexed connections — owns a `WireMeter` and reports
/// its frames to it, so they all charge by the same rules and a trace
/// journal's per-(direction, phase) byte sums equal the stats by
/// construction:
///
/// * a sent frame is charged to its phase at [`frame_wire_size`] and
///   mirrored as one `FrameSend` event;
/// * a received frame's wire bytes pool until the session layer has
///   parsed the frame and named its phase, and are then charged and
///   mirrored as one `FrameRecv` event; bytes never attributed (a frame
///   that failed its CRC) are charged to the map phase in the snapshot,
///   so totals always match the socket;
/// * a change of traffic direction is a half-trip, and two half-trips
///   are one roundtrip.
#[derive(Debug, Default)]
pub struct WireMeter {
    stats: TrafficStats,
    recorder: Recorder,
    last_dir: Option<Direction>,
    half_trips: u64,
    /// Direction and wire bytes of received frames awaiting a phase.
    unattributed: Option<(Direction, u64)>,
}

impl WireMeter {
    /// Mirror every charge from now on as a frame event on `recorder`
    /// (the default recorder is off).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The recorder the charges are mirrored to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Charge one transmission of a `payload_len`-byte frame. Every
    /// actual transmission is charged, retransmissions and injected
    /// duplicates included: the sender paid for them either way.
    pub fn sent(&mut self, dir: Direction, phase: Phase, payload_len: usize) {
        let wire = frame_wire_size(payload_len);
        self.stats.record(dir, phase, wire);
        self.recorder.record(EventKind::FrameSend {
            dir: dir.into(),
            phase: phase.into(),
            bytes: wire,
        });
        self.frame(dir);
    }

    /// Pool one received frame of `wire` bytes until
    /// [`attribute`](Self::attribute) names its phase.
    pub fn received(&mut self, dir: Direction, wire: u64) {
        self.unattributed.get_or_insert((dir, 0)).1 += wire;
        self.frame(dir);
    }

    /// Charge the pooled inbound bytes to `phase`.
    pub fn attribute(&mut self, phase: Phase) {
        if let Some((dir, bytes)) = self.unattributed.take() {
            self.stats.record(dir, phase, bytes);
            self.recorder.record(EventKind::FrameRecv {
                dir: dir.into(),
                phase: phase.into(),
                bytes,
            });
        }
    }

    /// Count `frames` of the frames already charged as retransmissions.
    pub fn note_retransmits(&mut self, frames: u64) {
        self.stats.retransmits += frames;
    }

    /// Snapshot of the accounting so far.
    #[must_use]
    pub fn stats(&self) -> TrafficStats {
        let mut out = self.stats;
        if let Some((dir, bytes)) = self.unattributed {
            out.record(dir, Phase::Map, bytes);
        }
        out.roundtrips = u32::try_from(self.half_trips.div_ceil(2)).unwrap_or(u32::MAX);
        out
    }

    fn frame(&mut self, dir: Direction) {
        self.stats.frames += 1;
        if self.last_dir != Some(dir) {
            self.half_trips += 1;
            self.last_dir = Some(dir);
        }
    }
}

/// `1234` → `"1.2 KB"`; decimal units to match the paper's figures.
fn human_bytes(n: u64) -> String {
    if n < 1000 {
        return format!("{n} B");
    }
    let mut v = n as f64;
    for unit in ["KB", "MB", "GB", "TB"] {
        v /= 1000.0;
        if v < 1000.0 {
            return format!("{v:.1} {unit}");
        }
    }
    format!("{v:.1} PB")
}

impl fmt::Display for TrafficStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} B (map s→c {} B, map c→s {} B, delta {} B, setup {} B, {} roundtrips)",
            self.total_bytes(),
            self.s2c(Phase::Map),
            self.c2s(Phase::Map),
            self.s2c(Phase::Delta) + self.c2s(Phase::Delta),
            self.s2c(Phase::Setup) + self.c2s(Phase::Setup),
            self.roundtrips,
        )?;
        if self.retransmits > 0 {
            write!(f, " [{} retransmitted frames]", self.retransmits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = TrafficStats::new();
        s.record(Direction::ClientToServer, Phase::Map, 100);
        s.record(Direction::ServerToClient, Phase::Map, 250);
        s.record(Direction::ServerToClient, Phase::Delta, 1000);
        assert_eq!(s.c2s(Phase::Map), 100);
        assert_eq!(s.s2c(Phase::Map), 250);
        assert_eq!(s.s2c(Phase::Delta), 1000);
        assert_eq!(s.total_bytes(), 1350);
        assert_eq!(s.total_c2s(), 100);
        assert_eq!(s.total_s2c(), 1250);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrafficStats::new();
        a.record(Direction::ClientToServer, Phase::Setup, 16);
        a.roundtrips = 3;
        let mut b = TrafficStats::new();
        b.record(Direction::ClientToServer, Phase::Setup, 16);
        b.roundtrips = 5;
        a.merge(&b);
        assert_eq!(a.c2s(Phase::Setup), 32);
        assert_eq!(a.roundtrips, 5);
    }

    #[test]
    fn merge_sums_frames_and_retransmits() {
        let mut a = TrafficStats::new();
        a.frames = 10;
        a.retransmits = 2;
        let mut b = TrafficStats::new();
        b.frames = 4;
        b.retransmits = 1;
        a.merge(&b);
        assert_eq!(a.frames, 14);
        assert_eq!(a.retransmits, 3);
        assert!(format!("{a}").contains("3 retransmitted"));
    }

    #[test]
    fn render_table_lists_every_phase_row() {
        let mut s = TrafficStats::new();
        s.record(Direction::ClientToServer, Phase::Map, 1500);
        s.record(Direction::ServerToClient, Phase::Delta, 2_500_000);
        s.roundtrips = 4;
        s.frames = 9;
        let table = s.render_table();
        for needle in [
            "phase",
            "setup",
            "map",
            "delta",
            "resume",
            "total",
            "1.5 KB",
            "2.5 MB",
            "4 roundtrips",
        ] {
            assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
        }
        assert_eq!(table.lines().count(), 7);
    }

    #[test]
    fn human_bytes_picks_sane_units() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(999), "999 B");
        assert_eq!(human_bytes(1000), "1.0 KB");
        assert_eq!(human_bytes(1_234_567), "1.2 MB");
    }

    #[test]
    fn tags_mirror_protocol_enums() {
        assert_eq!(DirTag::from(Direction::ClientToServer), DirTag::C2s);
        assert_eq!(DirTag::from(Direction::ServerToClient), DirTag::S2c);
        assert_eq!(PhaseTag::from(Phase::Setup), PhaseTag::Setup);
        assert_eq!(PhaseTag::from(Phase::Map), PhaseTag::Map);
        assert_eq!(PhaseTag::from(Phase::Delta), PhaseTag::Delta);
        assert_eq!(PhaseTag::from(Phase::Resume), PhaseTag::Resume);
    }

    #[test]
    fn meter_charges_pools_and_counts_reversals() {
        let rec = Recorder::system();
        let mut m = WireMeter::default();
        m.set_recorder(rec.clone());
        m.sent(Direction::ClientToServer, Phase::Setup, 10);
        m.sent(Direction::ClientToServer, Phase::Map, 0);
        m.received(Direction::ServerToClient, 40);
        m.received(Direction::ServerToClient, 2);
        // Unattributed bytes already show, under the map phase.
        assert_eq!(m.stats().s2c(Phase::Map), 42);
        m.attribute(Phase::Delta);
        m.attribute(Phase::Setup); // nothing pooled: charges nothing
        m.received(Direction::ServerToClient, 7);
        m.sent(Direction::ClientToServer, Phase::Map, 1);
        m.note_retransmits(1);
        let s = m.stats();
        assert_eq!((s.c2s(Phase::Setup), s.c2s(Phase::Map)), (15, 5 + 6));
        assert_eq!((s.s2c(Phase::Delta), s.s2c(Phase::Map), s.s2c(Phase::Setup)), (42, 7, 0));
        assert_eq!((s.frames, s.retransmits, s.roundtrips), (6, 1, 2));
        // The journal mirrors every attributed byte, and only those.
        let snap = rec.snapshot();
        assert_eq!(snap.total_bytes(), s.total_bytes() - 7);
        assert_eq!(snap.dir_phase_bytes(DirTag::S2c, PhaseTag::Delta), 42);
    }

    #[test]
    fn display_is_humane() {
        let mut s = TrafficStats::new();
        s.record(Direction::ServerToClient, Phase::Delta, 42);
        let text = format!("{s}");
        assert!(text.contains("42"));
    }
}
