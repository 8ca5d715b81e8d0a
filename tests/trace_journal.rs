//! Golden-journal and accounting tests for the tracing subsystem.
//!
//! Three invariants, checked end-to-end through the public facade:
//!
//! 1. **Determinism** — two runs of the in-process pump (the clock held
//!    fixed, and one thread while traced) over the same inputs under the
//!    same [`ManualClock`] schedule produce byte-identical journals (so a
//!    journal can be diffed across commits like any other golden file),
//!    for one file and for a collection whose batches carry many.
//! 2. **Charge-point mirroring** — the journal's per-(direction, phase)
//!    frame-byte sums equal the returned [`TrafficStats`] exactly: the
//!    one `WireMeter` emits its frame events where it charges the stats,
//!    never from a parallel estimate, and splits a batch frame across
//!    its parts' phases in both.
//! 3. **Schema** — every line round-trips through the strict v1 parser.

use std::sync::Arc;

use msync::core::{
    sync_collection, sync_collection_traced, sync_file, sync_file_with, CollectionOutcome,
    FileEntry, ProtocolConfig, SyncOptions,
};
use msync::corpus::Rng;
use msync::protocol::{Phase, TrafficStats};
use msync::trace::{parse_line, ManualClock, Recorder, SCHEMA_VERSION};

/// A correlated old/new file pair big enough to drive several map rounds.
fn corpus_pair(seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut byte = move || (rng.next_u64() >> 56) as u8;
    let old: Vec<u8> = (0..96 * 1024).map(|_| byte()).collect();
    let mut new = old.clone();
    // Scatter edits: overwrite a run, splice an insertion, drop a chunk.
    for start in [3_000usize, 20_000, 41_000, 70_000] {
        for b in &mut new[start..start + 257] {
            *b = byte();
        }
    }
    let insert: Vec<u8> = (0..777).map(|_| byte()).collect();
    new.splice(55_000..55_000, insert);
    new.drain(10_000..10_400);
    (old, new)
}

fn traced_run(old: &[u8], new: &[u8]) -> (String, msync::core::SyncOutcome) {
    let clock = ManualClock::ticking(1_000, 7);
    let recorder = Recorder::with_clock(Arc::new(clock));
    let opts = SyncOptions { recorder: recorder.clone(), ..SyncOptions::default() };
    let outcome =
        sync_file_with(old, new, &ProtocolConfig::default(), &opts).expect("traced sync succeeds");
    (msync::trace::render_journal(&recorder.drain_events()), outcome)
}

#[test]
fn golden_journal_is_byte_identical_across_runs() {
    let (old, new) = corpus_pair(0xA11CE);
    let (j1, o1) = traced_run(&old, &new);
    let (j2, o2) = traced_run(&old, &new);
    assert_eq!(o1.reconstructed, new);
    assert_eq!(o1.stats.traffic, o2.stats.traffic);
    assert!(!j1.is_empty(), "traced run must emit events");
    assert_eq!(j1, j2, "same inputs + same clock schedule must replay byte-identically");
}

#[test]
fn tracing_does_not_change_the_protocol() {
    // The recorder observes; it must never perturb what goes on the wire.
    let (old, new) = corpus_pair(0xBEEF);
    let untraced = sync_file(&old, &new, &ProtocolConfig::default()).expect("untraced sync");
    let (_, traced) = traced_run(&old, &new);
    assert_eq!(untraced.reconstructed, traced.reconstructed);
    assert_eq!(untraced.stats.traffic, traced.stats.traffic);
    assert_eq!(untraced.stats.levels.len(), traced.stats.levels.len());
    assert_eq!(untraced.fell_back, traced.fell_back);
}

/// The journal's frame bytes by `[direction][phase]`, indexed by its own
/// string tags: directions c2s, s2c; phases setup, map, delta.
fn frame_bytes(journal: &str) -> [[u64; 3]; 2] {
    let mut bytes = [[0u64; 3]; 2];
    for line in journal.lines() {
        let parsed = parse_line(line).expect("journal line parses");
        assert_eq!(parsed.v, u64::from(SCHEMA_VERSION), "schema version on {line}");
        if matches!(parsed.kind.as_str(), "frame_send" | "frame_recv") {
            let d = match parsed.str_field("dir") {
                Some("c2s") => 0,
                Some("s2c") => 1,
                other => panic!("bad dir {other:?} on {line}"),
            };
            let p = match parsed.str_field("phase") {
                Some("setup") => 0,
                Some("map") => 1,
                Some("delta") => 2,
                other => panic!("bad phase {other:?} on {line}"),
            };
            bytes[d][p] += parsed.u64_field("bytes").expect("bytes field");
        }
    }
    bytes
}

/// Assert the journal's frame bytes are exactly `t`, per direction and phase.
fn assert_sums_equal(journal: &str, t: &TrafficStats) {
    let bytes = frame_bytes(journal);
    for (p_idx, phase) in [Phase::Setup, Phase::Map, Phase::Delta].into_iter().enumerate() {
        assert_eq!(
            bytes[0][p_idx],
            t.c2s(phase),
            "journal c2s bytes must equal TrafficStats for {phase:?}"
        );
        assert_eq!(
            bytes[1][p_idx],
            t.s2c(phase),
            "journal s2c bytes must equal TrafficStats for {phase:?}"
        );
    }
}

#[test]
fn journal_byte_sums_equal_traffic_stats() {
    let (old, new) = corpus_pair(0xC0FFEE);
    let (journal, outcome) = traced_run(&old, &new);
    assert_sums_equal(&journal, &outcome.stats.traffic);
    let map_rounds = journal.lines().filter(|l| l.contains(r#""kind":"map_round""#)).count();
    assert_eq!(map_rounds, outcome.stats.levels.len(), "one map_round event per executed level");
    // The delta rides a batch frame and is still charged as delta.
    let delta = frame_bytes(&journal)[1][2];
    assert!(delta >= outcome.stats.delta_bytes && outcome.stats.delta_bytes > 0);
}

/// Ten files, each batch carrying several: edited ones, an unchanged
/// one, one only the server has and one only the client has.
fn collection_pair(seed: u64) -> (Vec<FileEntry>, Vec<FileEntry>) {
    let (mut old, mut new) = (Vec::new(), Vec::new());
    for i in 0..8u64 {
        let (base, edited) = corpus_pair(seed + i);
        let name = format!("f{i}");
        let edited = if i == 5 { base.clone() } else { edited };
        old.push(FileEntry::new(name.clone(), base));
        new.push(FileEntry::new(name, edited));
    }
    old.push(FileEntry::new("gone", corpus_pair(seed + 8).0));
    new.push(FileEntry::new("fresh", corpus_pair(seed + 9).0));
    new.sort_by(|a, b| a.name.cmp(&b.name));
    (old, new)
}

fn traced_collection_run(old: &[FileEntry], new: &[FileEntry]) -> (String, CollectionOutcome) {
    let clock = ManualClock::ticking(1_000, 7);
    let recorder = Recorder::with_clock(Arc::new(clock));
    let outcome = sync_collection_traced(old, new, &ProtocolConfig::default(), &recorder)
        .expect("traced collection sync succeeds");
    (msync::trace::render_journal(&recorder.drain_events()), outcome)
}

#[test]
fn multi_file_journal_is_byte_identical_across_runs_and_sums_to_the_traffic() {
    let (old, new) = collection_pair(0x5EED);
    let (j1, o1) = traced_collection_run(&old, &new);
    let (j2, o2) = traced_collection_run(&old, &new);
    assert_eq!(o1.files, new);
    assert_eq!((o1.unchanged, o1.created, o1.deleted), (1, 1, 1));
    assert_eq!(o1.traffic, o2.traffic);
    assert_eq!(j1, j2, "same inputs + same clock schedule must replay byte-identically");
    let count = |kind: &str| j1.lines().filter(|l| l.contains(kind)).count();
    // The unchanged file settles on the roster: no session, one cache hit.
    let ends = count(r#""kind":"session_end""#);
    assert_eq!(ends, new.len() - 1, "one session_end per changed or created file");
    assert_eq!(count(r#""kind":"cache_hit""#), 1, "one cache_hit per unchanged file");
    assert_sums_equal(&j1, &o1.traffic);
    // Untraced, the same sync runs its batches on every core and costs
    // exactly the same.
    let plain = sync_collection(&old, &new, &ProtocolConfig::default()).expect("untraced sync");
    assert_eq!(plain.files, o1.files);
    assert_eq!(plain.traffic, o1.traffic);
}

#[test]
fn manual_clock_timestamps_are_monotone_and_scheduled() {
    let (old, new) = corpus_pair(0xD1CE);
    let (journal, _) = traced_run(&old, &new);
    let mut last = 0u64;
    for line in journal.lines() {
        let parsed = parse_line(line).expect("parses");
        assert!(parsed.t_us >= last, "t_us must be non-decreasing: {line}");
        assert!(parsed.t_us >= 1_000, "ticking clock starts at 1000: {line}");
        assert_eq!((parsed.t_us - 1_000) % 7, 0, "ticking clock steps by 7: {line}");
        last = parsed.t_us;
    }
}
