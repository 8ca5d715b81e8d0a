//! Process-wide metric aggregation and the Prometheus-style text sink.
//!
//! A [`MetricsSnapshot`] is what a [`crate::Recorder`] maintains
//! incrementally as events arrive, and what the serve daemon merges
//! across sessions into its live process totals. The byte grid is the
//! same `[direction][phase]` shape as `TrafficStats`, which is what
//! lets tests assert `daemon metrics totals == summed per-session
//! TrafficStats` exactly.

use crate::event::{DirTag, EventKind, PhaseTag};
use crate::hist::{HistKind, Histogram, BUCKETS};
use std::fmt::Write as _;

/// Counters and histograms aggregated from a stream of events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Wire bytes by `[direction][phase]` (indices from
    /// [`DirTag::index`] / [`PhaseTag::index`]).
    pub bytes: [[u64; 4]; 2],
    /// `FrameSend` events seen.
    pub frames_sent: u64,
    /// `FrameRecv` events seen (attribution batches, not raw frames).
    pub frames_recv: u64,
    /// Frames retransmitted by the ARQ layer.
    pub retransmits: u64,
    /// Backoff (deadline-growth) events.
    pub backoffs: u64,
    /// Faults injected by the deterministic fault layer.
    pub faults: u64,
    /// Handshakes that agreed on a configuration.
    pub handshakes_ok: u64,
    /// Handshakes that were refused.
    pub handshakes_failed: u64,
    /// Per-file sessions started.
    pub sessions_started: u64,
    /// Per-file sessions ended.
    pub sessions_ended: u64,
    /// Sessions that fell back to a full transfer.
    pub fallbacks: u64,
    /// Events recorded (including any later evicted from the ring).
    pub events_recorded: u64,
    /// Events evicted from the bounded ring.
    pub events_dropped: u64,
    /// Files the client's own copy satisfied (roster fingerprint match).
    pub cache_hits: u64,
    /// Server hash-cache lookups satisfied from memory.
    pub hash_cache_hits: u64,
    /// Server hash-cache lookups that had to hash file data.
    pub hash_cache_misses: u64,
    /// Source bytes whose rehash the server hash cache avoided.
    pub hash_cache_hit_bytes: u64,
    /// Source bytes the server actually hashed on cache misses — the
    /// map-phase hash work; ≈ 0 on a warm cache.
    pub hash_cache_miss_bytes: u64,
    /// Map-phase digests obtained by sibling decomposition (parent
    /// digest minus the other child) instead of a scan or a hit.
    pub hash_cache_derived: u64,
    /// Source bytes those derivations covered without scanning.
    pub hash_cache_derived_bytes: u64,
    /// Slow-session watchdog firings (one per phase a session stalled
    /// in past the configured threshold).
    pub slow_sessions: u64,
    /// The four latency/size histograms, indexed by [`HistKind::index`].
    pub hists: [Histogram; 4],
}

impl MetricsSnapshot {
    /// An all-zero snapshot.
    #[must_use]
    pub fn new() -> Self {
        MetricsSnapshot {
            bytes: [[0; 4]; 2],
            frames_sent: 0,
            frames_recv: 0,
            retransmits: 0,
            backoffs: 0,
            faults: 0,
            handshakes_ok: 0,
            handshakes_failed: 0,
            sessions_started: 0,
            sessions_ended: 0,
            fallbacks: 0,
            events_recorded: 0,
            events_dropped: 0,
            cache_hits: 0,
            hash_cache_hits: 0,
            hash_cache_misses: 0,
            hash_cache_hit_bytes: 0,
            hash_cache_miss_bytes: 0,
            hash_cache_derived: 0,
            hash_cache_derived_bytes: 0,
            slow_sessions: 0,
            hists: [Histogram::new(), Histogram::new(), Histogram::new(), Histogram::new()],
        }
    }

    /// Tally one event into the counters. (Histograms are fed through
    /// [`MetricsSnapshot::observe`], not through events.)
    pub fn apply(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::SessionStart { .. } => self.sessions_started += 1,
            EventKind::SessionEnd { fell_back, .. } => {
                self.sessions_ended += 1;
                self.fallbacks += u64::from(fell_back);
            }
            EventKind::FrameSend { dir, phase, bytes } => {
                self.bytes[dir.index()][phase.index()] += bytes;
                self.frames_sent += 1;
            }
            EventKind::FrameRecv { dir, phase, bytes } => {
                self.bytes[dir.index()][phase.index()] += bytes;
                self.frames_recv += 1;
            }
            EventKind::Retransmit { frames } => self.retransmits += frames,
            EventKind::Backoff { .. } => self.backoffs += 1,
            EventKind::FaultInjected { .. } => self.faults += 1,
            EventKind::Handshake { ok } => {
                if ok {
                    self.handshakes_ok += 1;
                } else {
                    self.handshakes_failed += 1;
                }
            }
            EventKind::CacheHit { .. } => self.cache_hits += 1,
            EventKind::HashCacheHit { bytes } => {
                self.hash_cache_hits += 1;
                self.hash_cache_hit_bytes += bytes;
            }
            EventKind::HashCacheMiss { bytes } => {
                self.hash_cache_misses += 1;
                self.hash_cache_miss_bytes += bytes;
            }
            EventKind::HashCacheDerived { bytes } => {
                self.hash_cache_derived += 1;
                self.hash_cache_derived_bytes += bytes;
            }
            EventKind::SlowSession { .. } => self.slow_sessions += 1,
            EventKind::MapRound { .. }
            | EventKind::VerifyBatch { .. }
            | EventKind::DeltaPhase { .. }
            | EventKind::WindowAdvance { .. } => {}
        }
    }

    /// Record one histogram observation.
    pub fn observe(&mut self, kind: HistKind, v: u64) {
        self.hists[kind.index()].observe(v);
    }

    /// Bytes charged to one direction+phase cell.
    #[must_use]
    pub fn dir_phase_bytes(&self, dir: DirTag, phase: PhaseTag) -> u64 {
        self.bytes[dir.index()][phase.index()]
    }

    /// Total wire bytes across the grid.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    /// Fold another snapshot into this one (daemon-wide aggregation).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (row, orow) in self.bytes.iter_mut().zip(&other.bytes) {
            for (cell, ocell) in row.iter_mut().zip(orow) {
                *cell += ocell;
            }
        }
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.retransmits += other.retransmits;
        self.backoffs += other.backoffs;
        self.faults += other.faults;
        self.handshakes_ok += other.handshakes_ok;
        self.handshakes_failed += other.handshakes_failed;
        self.sessions_started += other.sessions_started;
        self.sessions_ended += other.sessions_ended;
        self.fallbacks += other.fallbacks;
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
        self.cache_hits += other.cache_hits;
        self.hash_cache_hits += other.hash_cache_hits;
        self.hash_cache_misses += other.hash_cache_misses;
        self.hash_cache_hit_bytes += other.hash_cache_hit_bytes;
        self.hash_cache_miss_bytes += other.hash_cache_miss_bytes;
        self.hash_cache_derived += other.hash_cache_derived;
        self.hash_cache_derived_bytes += other.hash_cache_derived_bytes;
        self.slow_sessions += other.slow_sessions;
        for (h, oh) in self.hists.iter_mut().zip(&other.hists) {
            h.merge(oh);
        }
    }

    /// Render as Prometheus-style exposition text (counters with
    /// `dir`/`phase` labels, histograms with cumulative `le` buckets).
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.render_prometheus_inner(None)
    }

    /// [`MetricsSnapshot::render_prometheus`] with an extra
    /// `collection="<name>"` label on every series — the per-collection
    /// blocks of the multi-collection daemon's metrics dump. Only
    /// counter/byte series are emitted (no `# TYPE` comments, which the
    /// unlabeled aggregate already declared).
    #[must_use]
    pub fn render_prometheus_collection(&self, collection: &str) -> String {
        self.render_prometheus_inner(Some(collection))
    }

    fn render_prometheus_inner(&self, collection: Option<&str>) -> String {
        let mut out = String::new();
        // `{dir=...}` with no collection, `{dir=...,collection=...}` with.
        let suffix = collection.map_or(String::new(), |c| format!(",collection=\"{c}\""));
        if collection.is_none() {
            let _ = writeln!(out, "# TYPE msync_bytes_total counter");
        }
        for dir in [DirTag::C2s, DirTag::S2c] {
            for phase in [PhaseTag::Setup, PhaseTag::Map, PhaseTag::Delta, PhaseTag::Resume] {
                let _ = writeln!(
                    out,
                    "msync_bytes_total{{dir=\"{}\",phase=\"{}\"{suffix}}} {}",
                    dir.as_str(),
                    phase.as_str(),
                    self.dir_phase_bytes(dir, phase)
                );
            }
        }
        // Bare counters grow `{collection=...}` when labeled.
        let bare = collection.map_or(String::new(), |c| format!("{{collection=\"{c}\"}}"));
        for (name, v) in [
            ("msync_frames_sent_total", self.frames_sent),
            ("msync_frame_recv_batches_total", self.frames_recv),
            ("msync_retransmits_total", self.retransmits),
            ("msync_backoffs_total", self.backoffs),
            ("msync_faults_injected_total", self.faults),
            ("msync_handshakes_ok_total", self.handshakes_ok),
            ("msync_handshakes_failed_total", self.handshakes_failed),
            ("msync_sessions_started_total", self.sessions_started),
            ("msync_sessions_ended_total", self.sessions_ended),
            ("msync_session_fallbacks_total", self.fallbacks),
            ("msync_trace_events_total", self.events_recorded),
            ("msync_trace_events_dropped_total", self.events_dropped),
            ("msync_cache_hits_total", self.cache_hits),
            ("msync_hash_cache_hits_total", self.hash_cache_hits),
            ("msync_hash_cache_misses_total", self.hash_cache_misses),
            ("msync_hash_cache_hit_bytes_total", self.hash_cache_hit_bytes),
            ("msync_hash_cache_miss_bytes_total", self.hash_cache_miss_bytes),
            ("msync_hash_cache_derived_total", self.hash_cache_derived),
            ("msync_hash_cache_derived_bytes_total", self.hash_cache_derived_bytes),
            ("msync_slow_sessions_total", self.slow_sessions),
        ] {
            if collection.is_none() {
                let _ = writeln!(out, "# TYPE {name} counter");
            }
            let _ = writeln!(out, "{name}{bare} {v}");
        }
        // The ring-eviction alarm series: present only when events were
        // actually lost, so scrapes can alert on mere existence.
        if self.events_dropped > 0 {
            if collection.is_none() {
                let _ = writeln!(out, "# TYPE msync_trace_dropped_events_total counter");
            }
            let _ = writeln!(out, "msync_trace_dropped_events_total{bare} {}", self.events_dropped);
        }
        if collection.is_some() {
            return out;
        }
        for kind in HistKind::ALL {
            let h = &self.hists[kind.index()];
            let name = format!("msync_{}", kind.as_str());
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for b in 0..BUCKETS {
                let n = h.bucket_count(b);
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let (_, hi) = Histogram::bucket_bounds(b);
                let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Render as one flat JSON object — the `stats json` admin answer.
    /// Every value is an unsigned integer, so the output parses with
    /// [`crate::journal::parse_flat_object`] (the same strict subset
    /// the journal uses); histograms are summarized as
    /// `count`/`sum`/`max`/`p50`/`p99` per kind.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        for dir in [DirTag::C2s, DirTag::S2c] {
            for phase in [PhaseTag::Setup, PhaseTag::Map, PhaseTag::Delta, PhaseTag::Resume] {
                let _ = write!(
                    out,
                    "\"bytes_{}_{}\":{},",
                    dir.as_str(),
                    phase.as_str(),
                    self.dir_phase_bytes(dir, phase)
                );
            }
        }
        for (name, v) in [
            ("bytes_total", self.total_bytes()),
            ("frames_sent", self.frames_sent),
            ("frame_recv_batches", self.frames_recv),
            ("retransmits", self.retransmits),
            ("backoffs", self.backoffs),
            ("faults_injected", self.faults),
            ("handshakes_ok", self.handshakes_ok),
            ("handshakes_failed", self.handshakes_failed),
            ("sessions_started", self.sessions_started),
            ("sessions_ended", self.sessions_ended),
            ("session_fallbacks", self.fallbacks),
            ("trace_events", self.events_recorded),
            ("trace_events_dropped", self.events_dropped),
            ("cache_hits", self.cache_hits),
            ("hash_cache_hits", self.hash_cache_hits),
            ("hash_cache_misses", self.hash_cache_misses),
            ("hash_cache_hit_bytes", self.hash_cache_hit_bytes),
            ("hash_cache_miss_bytes", self.hash_cache_miss_bytes),
            ("hash_cache_derived", self.hash_cache_derived),
            ("hash_cache_derived_bytes", self.hash_cache_derived_bytes),
            ("slow_sessions", self.slow_sessions),
        ] {
            let _ = write!(out, "\"{name}\":{v},");
        }
        for kind in HistKind::ALL {
            let h = &self.hists[kind.index()];
            let base = kind.as_str();
            let _ = write!(
                out,
                "\"{base}_count\":{},\"{base}_sum\":{},\"{base}_max\":{},\"{base}_p50\":{},\"{base}_p99\":{},",
                h.count(),
                h.sum(),
                h.max(),
                h.quantile(0.5),
                h.quantile(0.99)
            );
        }
        out.pop(); // the trailing comma; the arrays above are never empty
        out.push('}');
        out
    }
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_tallies_the_grid_and_counters() {
        let mut m = MetricsSnapshot::new();
        m.apply(&EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Map, bytes: 100 });
        m.apply(&EventKind::FrameRecv { dir: DirTag::S2c, phase: PhaseTag::Delta, bytes: 50 });
        m.apply(&EventKind::Retransmit { frames: 3 });
        m.apply(&EventKind::Handshake { ok: true });
        m.apply(&EventKind::Handshake { ok: false });
        m.apply(&EventKind::SessionStart { file_id: 0 });
        m.apply(&EventKind::SessionEnd { file_id: 0, ok: true, fell_back: true });
        m.apply(&EventKind::CacheHit { file_id: 2 });
        m.apply(&EventKind::HashCacheHit { bytes: 4096 });
        m.apply(&EventKind::HashCacheMiss { bytes: 512 });
        m.apply(&EventKind::HashCacheDerived { bytes: 256 });
        m.apply(&EventKind::SlowSession { phase: PhaseTag::Map, waited_us: 2_000_000 });
        assert_eq!(m.dir_phase_bytes(DirTag::C2s, PhaseTag::Map), 100);
        assert_eq!(m.dir_phase_bytes(DirTag::S2c, PhaseTag::Delta), 50);
        assert_eq!(m.total_bytes(), 150);
        assert_eq!(m.frames_sent, 1);
        assert_eq!(m.frames_recv, 1);
        assert_eq!(m.retransmits, 3);
        assert_eq!(m.handshakes_ok, 1);
        assert_eq!(m.handshakes_failed, 1);
        assert_eq!(m.sessions_started, 1);
        assert_eq!(m.sessions_ended, 1);
        assert_eq!(m.fallbacks, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.hash_cache_hits, 1);
        assert_eq!(m.hash_cache_misses, 1);
        assert_eq!(m.hash_cache_hit_bytes, 4096);
        assert_eq!(m.hash_cache_miss_bytes, 512);
        assert_eq!(m.hash_cache_derived, 1);
        assert_eq!(m.hash_cache_derived_bytes, 256);
        assert_eq!(m.slow_sessions, 1);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = MetricsSnapshot::new();
        a.apply(&EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Setup, bytes: 10 });
        a.observe(HistKind::FrameRtt, 500);
        let mut b = MetricsSnapshot::new();
        b.apply(&EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Setup, bytes: 5 });
        b.observe(HistKind::FrameRtt, 700);
        a.apply(&EventKind::HashCacheMiss { bytes: 30 });
        b.apply(&EventKind::HashCacheMiss { bytes: 12 });
        a.apply(&EventKind::SlowSession { phase: PhaseTag::Delta, waited_us: 9 });
        b.apply(&EventKind::SlowSession { phase: PhaseTag::Setup, waited_us: 7 });
        a.merge(&b);
        assert_eq!(a.dir_phase_bytes(DirTag::C2s, PhaseTag::Setup), 15);
        assert_eq!(a.frames_sent, 2);
        assert_eq!(a.hash_cache_misses, 2);
        assert_eq!(a.hash_cache_miss_bytes, 42);
        assert_eq!(a.slow_sessions, 2);
        assert_eq!(a.hists[HistKind::FrameRtt.index()].count(), 2);
        assert_eq!(a.hists[HistKind::FrameRtt.index()].sum(), 1200);
    }

    #[test]
    fn prometheus_text_has_the_expected_series() {
        let mut m = MetricsSnapshot::new();
        m.apply(&EventKind::FrameSend { dir: DirTag::S2c, phase: PhaseTag::Map, bytes: 123 });
        m.observe(HistKind::SessionDuration, 42);
        let text = m.render_prometheus();
        assert!(text.contains("msync_bytes_total{dir=\"s2c\",phase=\"map\"} 123"), "{text}");
        assert!(text.contains("msync_frames_sent_total 1"), "{text}");
        assert!(text.contains("msync_session_duration_us_bucket{le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("msync_session_duration_us_sum 42"), "{text}");
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(line.starts_with('#') || line.rsplit_once(' ').is_some(), "{line}");
        }
        // No drops → no alarm series.
        assert!(!text.contains("msync_trace_dropped_events_total"), "{text}");
    }

    #[test]
    fn drop_alarm_series_appears_only_after_drops() {
        let mut m = MetricsSnapshot::new();
        m.events_dropped = 17;
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE msync_trace_dropped_events_total counter"), "{text}");
        assert!(text.contains("msync_trace_dropped_events_total 17"), "{text}");
        let labeled = m.render_prometheus_collection("docs");
        assert!(
            labeled.contains("msync_trace_dropped_events_total{collection=\"docs\"} 17"),
            "{labeled}"
        );
    }

    #[test]
    fn json_rendering_is_flat_and_parses_with_the_journal_parser() {
        let mut m = MetricsSnapshot::new();
        m.apply(&EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Delta, bytes: 99 });
        m.apply(&EventKind::SlowSession { phase: PhaseTag::Map, waited_us: 1 });
        m.observe(HistKind::FrameRtt, 250);
        let json = m.render_json();
        let fields = crate::journal::parse_flat_object(&json).unwrap();
        let get = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| match v {
                    crate::journal::FieldValue::U64(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("missing {name} in {json}"))
        };
        assert_eq!(get("bytes_c2s_delta"), 99);
        assert_eq!(get("bytes_total"), 99);
        assert_eq!(get("frames_sent"), 1);
        assert_eq!(get("slow_sessions"), 1);
        assert_eq!(get("frame_rtt_us_count"), 1);
        assert_eq!(get("frame_rtt_us_sum"), 250);
    }

    #[test]
    fn collection_labeled_text_labels_every_series() {
        let mut m = MetricsSnapshot::new();
        m.apply(&EventKind::FrameSend { dir: DirTag::C2s, phase: PhaseTag::Map, bytes: 7 });
        m.apply(&EventKind::HashCacheHit { bytes: 100 });
        let text = m.render_prometheus_collection("docs");
        assert!(
            text.contains("msync_bytes_total{dir=\"c2s\",phase=\"map\",collection=\"docs\"} 7"),
            "{text}"
        );
        assert!(text.contains("msync_hash_cache_hits_total{collection=\"docs\"} 1"), "{text}");
        // No TYPE comments and no histograms in the labeled block; the
        // aggregate section already declared both.
        assert!(!text.contains("# TYPE"), "{text}");
        assert!(!text.contains("_bucket"), "{text}");
        for line in text.lines() {
            assert!(line.contains("collection=\"docs\""), "{line}");
        }
    }
}
