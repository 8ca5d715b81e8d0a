//! Client memory and time ceiling for one large file (ROADMAP "bounded
//! state"): a sync's working memory must follow the items of a round,
//! not the bytes of the file. With a position index over every offset
//! this 4 MiB sync took 24 s and 938 MiB; with the per-round scan it
//! takes a fraction of a second and a few bytes of RSS per file byte.
//!
//! Plain `cargo test` checks byte-exactness only. CI runs the file with
//! `MSYNC_BENCH=1` in release mode, which adds the two ceilings and
//! archives the measurement as `BENCH_bigfile_ceiling.json` in the repo
//! root. The test has its own process, so `VmHWM` growth across the
//! sync is the sync's. (Root integration tests are outside the xtask
//! clock-discipline scan, so `Instant` is fine here.)

mod support;

use std::time::Instant;

use msync::core::{sync_file, ProtocolConfig};
use msync::corpus::edits::{apply_edits, EditProfile};
use msync::corpus::rng::Rng;
use msync::corpus::text::source_file;
use support::peak_rss_bytes;

const FILE_BYTES: usize = 4 << 20;
/// Edit clusters: the minor-release density of a 16 KB source file
/// (2.5 clusters) scaled to the file, the benchmark's `bigfile_local`
/// recipe at eight times its size.
const CLUSTERS: f64 = 512.0;
/// Measured 32 MiB on the reference box.
const RSS_GROWTH_CEILING_BYTES: u64 = 64 << 20;
/// Measured 0.3 s on the reference box.
const SECONDS_CEILING: f64 = 5.0;

#[test]
fn four_mib_sync_is_exact_and_bounded() {
    let mut rng = Rng::seed_from_u64(0xB16_F11E);
    let old = source_file(&mut rng, FILE_BYTES);
    let profile =
        EditProfile { clusters: CLUSTERS, move_prob: 0.0, ..EditProfile::minor_release() };
    let new = apply_edits(&old, &profile, &mut rng);

    let rss_before = peak_rss_bytes();
    let t0 = Instant::now();
    let out = sync_file(&old, &new, &ProtocolConfig::default()).expect("sync");
    let seconds = t0.elapsed().as_secs_f64();
    let rss_growth = peak_rss_bytes() - rss_before;
    assert!(out.reconstructed == new, "reconstruction differs from the server's file");
    assert!(!out.fell_back, "a lightly edited file must not need the whole-file fallback");

    if std::env::var_os("MSYNC_BENCH").is_none() {
        eprintln!("bigfile_ceiling: set MSYNC_BENCH=1 (release) for the RSS and time ceilings");
        return;
    }
    let rss_per_file_byte = rss_growth as f64 / old.len() as f64;
    let traffic = out.stats.traffic;
    eprintln!(
        "bigfile_ceiling: {} B synced in {seconds:.3} s, RSS +{} MiB ({rss_per_file_byte:.2} B \
         per file byte), {} wire bytes, {} roundtrips",
        old.len(),
        rss_growth >> 20,
        traffic.total_bytes(),
        traffic.roundtrips
    );
    assert!(
        rss_growth < RSS_GROWTH_CEILING_BYTES,
        "sync grew peak RSS by {rss_growth} B, over the {RSS_GROWTH_CEILING_BYTES} B ceiling"
    );
    assert!(
        seconds < SECONDS_CEILING,
        "sync took {seconds:.3} s, over the {SECONDS_CEILING} s ceiling"
    );
    let json = format!(
        "{{\n  \"bench\": \"bigfile_ceiling\",\n  \"file_bytes\": {},\n  \"seconds\": {seconds:.4},\n  \"seconds_ceiling\": {SECONDS_CEILING},\n  \"rss_growth_bytes\": {rss_growth},\n  \"rss_growth_ceiling_bytes\": {RSS_GROWTH_CEILING_BYTES},\n  \"rss_bytes_per_file_byte\": {rss_per_file_byte:.3},\n  \"wire_bytes\": {},\n  \"roundtrips\": {}\n}}\n",
        old.len(),
        traffic.total_bytes(),
        traffic.roundtrips
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_bigfile_ceiling.json");
    std::fs::write(out_path, &json).expect("write bench json");
    eprintln!("bigfile_ceiling: gate passed -> {out_path}");
}
