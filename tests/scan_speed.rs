//! Match-scan speed gate: the client's per-round scan
//! (`index::first_positions`) must run close to the speed of a bare
//! roll of the decomposable checksum over the same bytes.
//!
//! The benchmark's `hashes.roll_scan` and `core.index.*` replays do not
//! run this loop, so this file is the only timing that watches it.
//!
//! Off by default (timing asserts don't belong in plain `cargo test`);
//! CI runs it with `MSYNC_BENCH=1` in release mode and archives the
//! measurement as `BENCH_scan.json` in the repo root.
//!
//! Method: one 512 KiB source file (the benchmark's `bigfile_local`
//! size) and one deep round of it: 48 targets at a 128-byte window, half
//! of them windows of the file, half most likely nowhere, so every scan
//! rolls the whole file. The scan and the bare roll alternate `REPS`
//! times in one process and the minimum of each is compared, which
//! discards scheduler noise instead of averaging it in. (Root
//! integration tests are outside the xtask clock-discipline scan, so
//! `Instant` is fine here.)

use std::hint::black_box;
use std::time::Instant;

use msync::core::index::first_positions;
use msync::corpus::rng::Rng;
use msync::corpus::text::source_file;
use msync::hashes::{DecomposableAdler, DecomposableDigest, RollingHash};

const FILE_BYTES: usize = 512 << 10;
const WINDOW: usize = 128;
/// The global hash width of a 512 KiB file under the default config.
const BITS: u32 = 28;
const TARGETS: usize = 48;
const REPS: usize = 15;
/// Full-measurement retries before the gate fails: one noisy minimum
/// is forgiven, a real regression fails every attempt.
const ATTEMPTS: usize = 3;
/// Scan time over bare-roll time. On a 2-vCPU x86-64 box this scan
/// reads 1.22–1.26 and the per-byte `roll` + table-probe loop it
/// replaced 2.59–2.64; the bound leaves the first about 25 % of room.
const RATIO_BOUND: f64 = 1.6;

/// Roll the checksum over every window of `old` and fold the sums into
/// one value, so the loop cannot be optimised away.
fn bare_roll(old: &[u8], window: usize) -> u64 {
    let mut hash = DecomposableAdler::new();
    hash.reset(&old[..window]);
    let mut fold = 0u64;
    for (&out, &in_) in old.iter().zip(&old[window..]) {
        hash.roll(out, in_);
        let (a, b) = hash.sums();
        fold ^= u64::from(a) ^ (u64::from(b) << 32);
    }
    fold
}

/// Seconds of one timed call.
fn time_s(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// One alternating measurement: `(scan_min_s, roll_min_s)`.
fn measure(old: &[u8], targets: &[u64]) -> (f64, f64) {
    let (mut scan_s, mut roll_s) = (f64::MAX, f64::MAX);
    for _ in 0..REPS {
        scan_s = scan_s.min(time_s(|| {
            black_box(first_positions(black_box(old), WINDOW, BITS, targets));
        }));
        roll_s = roll_s.min(time_s(|| {
            black_box(bare_roll(black_box(old), WINDOW));
        }));
    }
    (scan_s, roll_s)
}

#[test]
fn match_scan_runs_near_bare_roll_speed() {
    if std::env::var_os("MSYNC_BENCH").is_none() {
        eprintln!("scan_speed: set MSYNC_BENCH=1 (release) to run the timing gate");
        return;
    }
    let mut rng = Rng::seed_from_u64(0x5CA7_5BEED);
    let old = source_file(&mut rng, FILE_BYTES);
    let targets: Vec<u64> = (0..TARGETS)
        .map(|i| {
            if i % 2 == 0 {
                let at = rng.gen_range(0..(old.len() - WINDOW) as u64) as usize;
                DecomposableDigest::of(&old[at..at + WINDOW]).prefix(BITS)
            } else {
                rng.next_u64() & ((1 << BITS) - 1)
            }
        })
        .collect();
    let found = first_positions(&old, WINDOW, BITS, &targets);
    assert!(found.iter().step_by(2).all(Option::is_some), "a window of the file was not found");
    assert!(found.iter().any(Option::is_none), "every target placed: the scan would stop early");

    let mb = old.len() as f64 / 1e6;
    let mut last = (0.0, 0.0);
    for attempt in 1..=ATTEMPTS {
        let (scan_s, roll_s) = measure(&old, &targets);
        let ratio = scan_s / roll_s;
        last = (scan_s, roll_s);
        eprintln!(
            "scan_speed attempt {attempt}: scan {:.1} MB/s, bare roll {:.1} MB/s, ratio {ratio:.2} \
             (bound {RATIO_BOUND})",
            mb / scan_s,
            mb / roll_s
        );
        if ratio <= RATIO_BOUND {
            let json = format!(
                "{{\n  \"bench\": \"scan_speed\",\n  \"file_bytes\": {},\n  \"window\": {WINDOW},\n  \"bits\": {BITS},\n  \"targets\": {TARGETS},\n  \"reps\": {REPS},\n  \"attempt\": {attempt},\n  \"scan_mb_per_s\": {:.1},\n  \"roll_mb_per_s\": {:.1},\n  \"ratio\": {ratio:.3},\n  \"ratio_bound\": {RATIO_BOUND}\n}}\n",
                old.len(),
                mb / scan_s,
                mb / roll_s
            );
            let out = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_scan.json");
            std::fs::write(out, &json).expect("write bench json");
            eprintln!("scan_speed: gate passed -> {out}");
            return;
        }
    }
    let (scan_s, roll_s) = last;
    panic!(
        "match scan too slow on all {ATTEMPTS} attempts: last {:.1} MB/s against a bare roll's \
         {:.1} MB/s, ratio {:.2} over the {RATIO_BOUND} bound",
        mb / scan_s,
        mb / roll_s,
        scan_s / roll_s
    );
}
