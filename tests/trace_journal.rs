//! Golden-journal and accounting tests for the tracing subsystem.
//!
//! Three invariants, checked end-to-end through the public facade:
//!
//! 1. **Determinism** — two runs of the in-process pump (both wire
//!    machines on one thread, the clock held fixed) over the same inputs
//!    under the same [`ManualClock`] schedule produce byte-identical
//!    journals (so a journal can be diffed across commits like any other
//!    golden file).
//! 2. **Charge-point mirroring** — the journal's per-(direction, phase)
//!    frame-byte sums equal the returned [`TrafficStats`] exactly: the
//!    one `WireMeter` emits its frame events where it charges the stats,
//!    never from a parallel estimate, and splits a batch frame across
//!    its parts' phases in both.
//! 3. **Schema** — every line round-trips through the strict v1 parser.

use std::sync::Arc;

use msync::core::{sync_file, sync_file_with, ProtocolConfig, SyncOptions};
use msync::corpus::Rng;
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

#[test]
fn journal_byte_sums_equal_traffic_stats() {
    let (old, new) = corpus_pair(0xC0FFEE);
    let (journal, outcome) = traced_run(&old, &new);

    // bytes[dir][phase], indexed by the journal's own string tags.
    let mut bytes = [[0u64; 3]; 2];
    let mut map_rounds = 0usize;
    for line in journal.lines() {
        let parsed = parse_line(line).expect("journal line parses");
        assert_eq!(parsed.v, u64::from(SCHEMA_VERSION), "schema version on {line}");
        match parsed.kind.as_str() {
            "frame_send" | "frame_recv" => {
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
            "map_round" => map_rounds += 1,
            _ => {}
        }
    }

    use msync::protocol::{Direction, Phase};
    let t = &outcome.stats.traffic;
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
    let _ = Direction::ClientToServer; // imported for the doc-reader: dirs map 0 = c2s, 1 = s2c
    assert_eq!(map_rounds, outcome.stats.levels.len(), "one map_round event per executed level");
    // The delta rides a batch frame and is still charged as delta.
    assert!(bytes[1][2] >= outcome.stats.delta_bytes && outcome.stats.delta_bytes > 0);
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
