//! The traced run: one workload with the recorder attached, then every
//! layer's public calls replayed on the workload's own inputs inside
//! benchmark-side spans. Yields the per-layer metrics and the trace files;
//! end-to-end metrics are never taken from here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

use msync::compress::{compress, decompress, delta_decode, delta_encode};
use msync::core::index::PositionIndex;
use msync::core::items::global_hash_bits;
use msync::core::{FileEntry, ProtocolConfig, SyncStats};
use msync::hashes::rolling::scan_rolling;
use msync::hashes::{file_fingerprint, truncate_bits, DecomposableAdler, DecomposableDigest, Md5};
use msync::net::{admin_health, admin_stats};
use msync::protocol::{crc32, decode_frame, encode_frame, frame_copy_bytes, Phase};
use msync::trace::{render_chrome_trace, render_journal, Recorder};

use crate::check::Tally;
use crate::fixture::{Facts, Fixture};
use crate::inputs::Workload;
use crate::measure::{rsync_baseline, summarise};
use crate::metrics::{Measurements, PER_LAYER};
use crate::spans::Spans;
use crate::stats::percentile;
use crate::timer::time;

/// Where the trace files go: `out/` beside this crate's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Rounds of alternating untraced and traced syncs. Three `tiny_sessions`
/// rounds leave 61 000 events, which the recorder's 65 536-event ring
/// still holds; a fourth would drop some.
const ROUNDS: usize = 3;
/// `admin_health` round trips timed for `net.hello_rtt_us`.
const HELLOS: usize = 200;
/// Bytes hashed or framed by the replays that take one big buffer.
const BUFFER_BYTES: usize = 4 << 20;
/// Bytes the stream coder replay compresses at most (it runs at ~5 MB/s).
const LZ_BYTES: usize = 1 << 20;
/// Operations per call of the replays reported in ns per operation.
const OPS: usize = 100_000;

/// One server file with the client's old version of it, and the block
/// sizes at which its session exchanged global hashes (so the client
/// built a position index and the server hashed every block).
struct Pair<'a> {
    new: &'a [u8],
    old: &'a [u8],
    global_levels: Vec<usize>,
}

impl Pair<'_> {
    fn changed(&self) -> bool {
        !self.old.is_empty() && self.old != self.new
    }
}

fn global_levels(stats: &SyncStats, cfg: &ProtocolConfig) -> Vec<usize> {
    stats
        .levels
        .iter()
        .filter(|l| l.block_size >= cfg.min_block_global && l.items > l.cont_items + l.local_items)
        .map(|l| l.block_size)
        .collect()
}

fn pairs<'a>(fixture: &'a Fixture, facts: &Facts) -> Vec<Pair<'a>> {
    let cfg = fixture.workload.config();
    let levels: BTreeMap<&str, Vec<usize>> = facts
        .per_file
        .iter()
        .map(|(name, stats)| (name.as_str(), global_levels(stats, &cfg)))
        .collect();
    fixture
        .inputs
        .pairs()
        .into_iter()
        .map(|(new, old): (&FileEntry, &[u8])| Pair {
            new: &new.data,
            old,
            global_levels: levels.get(new.name.as_str()).cloned().unwrap_or_default(),
        })
        .collect()
}

/// `bytes` of the workload's server-side content, repeated as needed.
fn content_buffer(pairs: &[Pair<'_>], bytes: usize) -> Vec<u8> {
    let mut out: Vec<u8> = pairs.iter().flat_map(|p| p.new.iter().copied()).take(bytes).collect();
    if out.is_empty() {
        out.push(0);
    }
    while out.len() < bytes {
        out.extend_from_within(..out.len().min(bytes - out.len()));
    }
    out
}

fn mb_per_s(bytes: u64, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-9)
}

fn ns_per_op(seconds: f64, ops: usize) -> f64 {
    seconds * 1e9 / ops as f64
}

/// The values of a traced run, by metric name.
type Values = BTreeMap<&'static str, f64>;

/// Replay the hashing, index, compression, framing and rsync layers on
/// the workload's inputs. `slice` is the least time one replay measures.
/// Returns the layer seconds one sync would be charged, by layer.
fn replay_layers(
    spans: &mut Spans,
    fixture: &Fixture,
    pairs: &[Pair<'_>],
    slice: f64,
    v: &mut Values,
) -> [f64; 3] {
    let cfg = fixture.workload.config();
    let changed: Vec<&Pair<'_>> = pairs.iter().filter(|p| p.changed()).collect();
    let buffer = content_buffer(pairs, BUFFER_BYTES);

    // hashes: both sides fingerprint every file; the server digests every
    // block of a changed file at every global level.
    let all_bytes: u64 = pairs.iter().map(|p| (p.old.len() + p.new.len()) as u64).sum();
    let fingerprint_s = spans.replay("hashes.fingerprint", slice, || {
        for p in pairs {
            black_box((file_fingerprint(p.old), file_fingerprint(p.new)));
        }
    });
    v.insert("hashes.fingerprint_mb_s", mb_per_s(all_bytes, fingerprint_s));
    let md5_s = spans.replay("hashes.md5", slice, || {
        black_box(Md5::digest(black_box(&buffer)));
    });
    v.insert("hashes.md5_mb_s", mb_per_s(buffer.len() as u64, md5_s));
    let level_bytes = |side: fn(&Pair<'_>) -> usize| -> u64 {
        changed.iter().map(|p| (side(p) * p.global_levels.len()) as u64).sum()
    };
    let digest_s = spans.replay("hashes.decomposable_of", slice, || {
        for p in &changed {
            for &d in &p.global_levels {
                for block in p.new.chunks(d) {
                    black_box(DecomposableDigest::of(block));
                }
            }
        }
    });
    v.insert("hashes.decomposable_of_mb_s", mb_per_s(level_bytes(|p| p.new.len()), digest_s));
    let scan_s = spans.replay("hashes.roll_scan", slice, || {
        for p in &changed {
            for &d in &p.global_levels {
                let mut acc = 0u64;
                scan_rolling(&mut DecomposableAdler::new(), p.old, d, |_, value| acc ^= value);
                black_box(acc);
            }
        }
    });
    v.insert("hashes.roll_scan_mb_s", mb_per_s(level_bytes(|p| p.old.len()), scan_s));
    let (left, right) = buffer[..4096].split_at(2048);
    let (left, right) = (DecomposableDigest::of(left), DecomposableDigest::of(right));
    let decompose_s = spans.replay("hashes.decompose", slice, || {
        for _ in 0..OPS / 3 {
            let parent = black_box(left).compose(black_box(&right));
            black_box((parent.decompose_right(&left), parent.decompose_left(&right)));
        }
    });
    v.insert("hashes.decompose_ns_op", ns_per_op(decompose_s, OPS));

    // core.index: the client builds one position index per changed file
    // and global level.
    let bits = |p: &Pair<'_>| global_hash_bits(p.old.len() as u64, cfg.global_extra_bits);
    let build_s = spans.replay("core.index.build", slice, || {
        for p in &changed {
            for &d in &p.global_levels {
                black_box(PositionIndex::build(p.old, d, bits(p), cfg.max_positions_per_hash));
            }
        }
    });
    v.insert("core.index.build_s", build_s);
    v.insert("core.index.build_mb_s", mb_per_s(level_bytes(|p| p.old.len()), build_s));
    if let Some(p) = changed.iter().max_by_key(|p| p.old.len()) {
        // Half the keys are block hashes of the indexed file, half are not.
        let d = p.global_levels.last().copied().unwrap_or(cfg.min_block_global);
        let index = PositionIndex::build(p.old, d, bits(p), cfg.max_positions_per_hash);
        let mut keys = Vec::new();
        scan_rolling(&mut DecomposableAdler::new(), p.old, d, |pos, value| {
            if pos % d == 0 {
                let hit = truncate_bits(value, bits(p));
                keys.extend([hit, truncate_bits(!hit, bits(p))]);
            }
        });
        if !keys.is_empty() {
            let lookup_s = spans.replay("core.index.lookup", slice, || {
                let found: usize =
                    keys.iter().cycle().take(OPS).map(|&k| index.lookup(k).len()).sum();
                black_box(found);
            });
            v.insert("core.index.lookup_ns_op", ns_per_op(lookup_s, OPS));
        }
    }

    // compress.delta: the server encodes each changed file against the
    // old one (the paper's zdelta lower bound), the client decodes it.
    let deltas: Vec<Vec<u8>> = changed.iter().map(|p| delta_encode(p.old, p.new)).collect();
    let changed_bytes: u64 = changed.iter().map(|p| p.new.len() as u64).sum();
    let encode_s = spans.replay("compress.delta.encode", slice, || {
        for p in &changed {
            black_box(delta_encode(p.old, p.new));
        }
    });
    let decode_s = spans.replay("compress.delta.decode", slice, || {
        for (p, delta) in changed.iter().zip(&deltas) {
            black_box(delta_decode(p.old, delta).map(|out| out.len()).unwrap_or(0));
        }
    });
    v.insert("compress.delta.encode_mb_s", mb_per_s(changed_bytes, encode_s));
    v.insert("compress.delta.decode_mb_s", mb_per_s(changed_bytes, decode_s));

    // compress.lz: files the client does not have travel compressed whole.
    let created: Vec<&Pair<'_>> = pairs.iter().filter(|p| p.old.is_empty()).collect();
    let whole: Vec<u8> = if created.is_empty() { &changed } else { &created }
        .iter()
        .flat_map(|p| p.new.iter().copied())
        .take(LZ_BYTES)
        .collect();
    let packed = compress(&whole);
    let compress_s = spans.replay("compress.lz.compress", slice, || {
        black_box(compress(black_box(&whole)));
    });
    let decompress_s = spans.replay("compress.lz.decompress", slice, || {
        black_box(decompress(black_box(&packed)).map(|out| out.len()).unwrap_or(0));
    });
    v.insert("compress.lz.compress_mb_s", mb_per_s(whole.len() as u64, compress_s));
    v.insert("compress.lz.decompress_mb_s", mb_per_s(whole.len() as u64, decompress_s));
    let created_packed: usize = created.iter().map(|p| compress(p.new).len()).sum();
    let bound = deltas.iter().map(Vec::len).sum::<usize>() + created_packed;
    v.insert("compress.delta.zdelta_bound_bytes", bound as f64);

    // protocol: checksum and frame codec, per byte and per frame.
    let crc_s = spans.replay("protocol.crc32", slice, || {
        black_box(crc32(black_box(&buffer)));
    });
    v.insert("protocol.crc32_mb_s", mb_per_s(buffer.len() as u64, crc_s));
    let codec = |payload: &[u8], frames: usize| {
        for _ in 0..frames {
            let frame = encode_frame(black_box(payload));
            black_box(decode_frame(&frame).map(<[u8]>::len).unwrap_or(0));
        }
    };
    let small_s = spans.replay("protocol.frame_codec_64", slice, || codec(&buffer[..64], OPS));
    v.insert("protocol.frame_codec_ns_op", ns_per_op(small_s, OPS));
    let big_frames = BUFFER_BYTES / (16 << 10);
    let big_s =
        spans.replay("protocol.frame_codec_16k", slice, || codec(&buffer[..16 << 10], big_frames));
    v.insert("protocol.frame_codec_mb_s", mb_per_s(BUFFER_BYTES as u64, big_s));

    // rsync: the baseline on the same pairs.
    let (rsync_s, (rsync_bytes, _)) = spans.span("rsync.sync", |_| rsync_baseline(&fixture.inputs));
    v.insert("rsync.wire_bytes", rsync_bytes as f64);
    v.insert("rsync.sync_mb_per_s", mb_per_s(fixture.inputs.content_bytes(), rsync_s));

    [fingerprint_s + digest_s, build_s, encode_s + decode_s]
}

/// What the sessions of the traced run did, from the results the public
/// API returns.
fn session_counters(fixture: &Fixture, facts: &Facts, v: &mut Values) {
    let levels = || facts.per_file.iter().flat_map(|(_, s)| s.levels.iter());
    let sum = |f: fn(&msync::core::LevelStats) -> usize| levels().map(f).sum::<usize>() as f64;
    let (items, confirmed) = (sum(|l| l.items), sum(|l| l.confirmed));
    let rounds = facts.per_file.iter().map(|(_, s)| s.levels.len()).max().unwrap_or(0);
    let false_candidates: usize = facts.per_file.iter().map(|(_, s)| s.false_candidates()).sum();
    let known: u64 = facts.per_file.iter().map(|(_, s)| s.known_bytes).sum();
    let synced_bytes: usize = {
        let ran: std::collections::BTreeSet<&str> =
            facts.per_file.iter().map(|(name, _)| name.as_str()).collect();
        fixture
            .inputs
            .new
            .iter()
            .filter(|f| ran.contains(f.name.as_str()))
            .map(|f| f.data.len())
            .sum()
    };
    v.insert("core.session.rounds", rounds as f64);
    v.insert("core.session.items", items);
    v.insert("core.session.candidates", sum(|l| l.candidates));
    v.insert("core.session.confirmed", confirmed);
    v.insert("core.session.false_candidates", false_candidates as f64);
    v.insert("core.session.harvest_ratio", confirmed / items.max(1.0));
    v.insert("core.session.known_fraction", known as f64 / synced_bytes.max(1) as f64);
    v.insert("core.session.fallback_files", facts.fell_back as f64);
    let t = &facts.traffic;
    let both = |phase| (t.c2s(phase) + t.s2c(phase)) as f64;
    v.insert("core.session.setup_bytes", both(Phase::Setup));
    v.insert("core.session.map_c2s_bytes", t.c2s(Phase::Map) as f64);
    v.insert("core.session.map_s2c_bytes", t.s2c(Phase::Map) as f64);
    v.insert("core.session.delta_bytes", both(Phase::Delta));
    v.insert("core.session.resume_bytes", both(Phase::Resume));
}

/// The value of a `name value` line of a Prometheus exposition.
fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// One workload, traced. Returns the checks' tally and every per-layer
/// metric.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Tally, Measurements), String> {
    let mut tally = Tally::default();
    let mut spans = Spans::new(workload.name());
    let mut v = Values::new();
    let mut fixture = Fixture::set_up(workload, seed, &mut tally)?;
    let recorder = Recorder::system();
    // Sessions one client runs per round: a few seconds' worth.
    let per_round = match workload {
        Workload::TinySessions => 500,
        Workload::WebDaemon => 5,
        Workload::ReleaseLocal | Workload::BigfileLocal => 1,
    };

    let daemon_before = fixture.daemon_metrics();
    let copied_before = frame_copy_bytes();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    spans
        .span("trace.run", |spans| -> Result<(), String> {
            for _ in 0..ROUNDS {
                let (_, batch) = spans.span("trace.untraced_sync", |_| {
                    fixture.run_batch(1, per_round, &Recorder::off())
                });
                plain.push(batch?);
                let (_, batch) =
                    spans.span("trace.traced_sync", |_| fixture.run_batch(1, per_round, &recorder));
                traced.push(batch?);
            }
            Ok(())
        })
        .1?;
    let sessions = (2 * ROUNDS * per_round) as f64;
    let copied = frame_copy_bytes() - copied_before;
    let daemon = fixture.daemon_metrics();
    for batch in plain.iter_mut().chain(&mut traced) {
        tally.merge(std::mem::take(&mut batch.tally));
    }
    let (plain, traced) = (summarise(&plain), summarise(&traced));
    let sync_s = plain.p50_s;
    v.insert("trace.sync_s", sync_s);
    v.insert("trace.overhead_pct", (traced.p50_s / sync_s.max(1e-9) - 1.0) * 100.0);
    let client_trace = recorder.snapshot();
    v.insert("trace.events_dropped", (client_trace.events_dropped + daemon.events_dropped) as f64);

    let facts = fixture.first_facts().ok_or("no sync succeeded")?.clone();
    session_counters(&fixture, &facts, &mut v);

    if let Some(addr) = fixture.daemon_addr() {
        let cold = &fixture.cold_metrics;
        let hits = (daemon.hash_cache_hits - cold.hash_cache_hits) as f64;
        let misses = (daemon.hash_cache_misses - cold.hash_cache_misses) as f64;
        v.insert("core.snapshot.hit_ratio", hits / (hits + misses).max(1.0));
        v.insert("core.snapshot.miss_bytes", cold.hash_cache_miss_bytes as f64);
        v.insert("core.snapshot.derived_bytes", cold.hash_cache_derived_bytes as f64);
        v.insert("core.snapshot.cold_session_s", fixture.cold_session_s);
        v.insert("core.snapshot.warm_session_s", sync_s);

        let frames = (daemon.frames_sent + daemon.frames_recv)
            - (daemon_before.frames_sent + daemon_before.frames_recv);
        v.insert("protocol.frames_per_session", frames as f64 / sessions);
        v.insert("protocol.copied_bytes_per_session", copied as f64 / sessions);
        v.insert("protocol.retransmits", (daemon.retransmits + client_trace.retransmits) as f64);
        v.insert("net.handshakes_failed", daemon.handshakes_failed as f64);
        v.insert("net.socket_bytes_per_session", facts.traffic.total_bytes() as f64);
        v.insert("net.us_per_roundtrip", sync_s * 1e6 / f64::from(facts.traffic.roundtrips.max(1)));

        let timeout = Duration::from_secs(10);
        let (_, hellos) = spans.span("net.hello", |_| -> Result<Vec<f64>, String> {
            (0..HELLOS)
                .map(|_| {
                    let (s, reply) = time(|| admin_health(addr, timeout));
                    reply.map(|_| s * 1e6).map_err(|e| format!("admin_health: {e}"))
                })
                .collect()
        });
        v.insert("net.hello_rtt_us", percentile(&hellos?, 50.0));
        let stats = admin_stats(addr, false, timeout).map_err(|e| format!("admin_stats: {e}"))?;
        let pool = |name: &str| prometheus_value(&stats, name).unwrap_or(0.0);
        let (reused, allocated) =
            (pool("msync_frame_pool_reused_total"), pool("msync_frame_pool_allocated_total"));
        v.insert("protocol.pool_reuse_ratio", reused / (reused + allocated).max(1.0));
    }
    fixture.tear_down();

    let slice = seconds / 50.0;
    let (_, layer_s) = spans.span("trace.replay", |spans| {
        replay_layers(spans, &fixture, &pairs(&fixture, &facts), slice, &mut v)
    });
    let shares = layer_s.map(|s| s / sync_s.max(1e-9));
    v.insert("hashes.share", shares[0]);
    v.insert("core.index.share", shares[1]);
    v.insert("compress.delta.share", shares[2]);
    let attributed: f64 = shares.iter().sum();
    v.insert("trace.attributed_share", attributed);
    v.insert("trace.unattributed_share", 1.0 - attributed);

    write_traces(workload, &spans, &recorder)?;
    eprintln!(
        "{}: {} spans; untraced sync {:.4} s (best batch of {} syncs), traced {:.4} s",
        workload.name(),
        spans.all().len(),
        sync_s,
        plain.syncs,
        traced.p50_s
    );
    Ok((tally, PER_LAYER.iter().map(|m| (m.name, v.get(m.name).copied().unwrap_or(0.0))).collect()))
}

/// Write the benchmark's spans and the recorder's own journal, both also
/// as Chrome traces, into [`OUT_DIR`].
fn write_traces(workload: Workload, spans: &Spans, recorder: &Recorder) -> Result<(), String> {
    let dir = PathBuf::from(OUT_DIR);
    let write = |file: String, text: &str| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let name = workload.name();
    write(format!("trace_{name}.json"), &spans.to_chrome_trace())?;
    let journal = render_journal(&recorder.drain_events());
    write(format!("journal_{name}.jsonl"), &journal)?;
    let chrome = render_chrome_trace(&journal).map_err(|e| format!("recorder journal: {e}"))?;
    write(format!("recorder_{name}.json"), &chrome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_values_are_read_by_exact_name() {
        let text = "# TYPE msync_frame_pool_reused_total counter\n\
                    msync_frame_pool_reused_total 41\nmsync_frame_pool_reused_total_x 7\n";
        assert_eq!(prometheus_value(text, "msync_frame_pool_reused_total"), Some(41.0));
        assert_eq!(prometheus_value(text, "msync_frame_pool_idle"), None);
    }

    #[test]
    fn the_content_buffer_repeats_short_content() {
        let pair = Pair { new: b"abc", old: b"", global_levels: vec![] };
        assert_eq!(content_buffer(&[pair], 8), b"abcabcab");
        assert_eq!(content_buffer(&[], 4), [0; 4]);
    }
}
