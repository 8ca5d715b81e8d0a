//! Cross-crate integration: whole-collection synchronization, every
//! technique combination, exactness everywhere.

use msync::core::{sync_collection, sync_file, FileEntry, ProtocolConfig, VerifyStrategy};
use msync::corpus::{emacs_like, gcc_like, release_pair, web_collection, web_params, Collection};

fn entries(c: &Collection) -> Vec<FileEntry> {
    c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
}

fn assert_collection_syncs(old: &Collection, new: &Collection, cfg: &ProtocolConfig) -> u64 {
    let out = sync_collection(&entries(old), &entries(new), cfg).expect("sync succeeds");
    assert_eq!(out.files.len(), new.len());
    for (got, want) in out.files.iter().zip(new.files()) {
        assert_eq!(got.name, want.name);
        assert_eq!(got.data, want.data, "mismatch in {}", want.name);
    }
    out.traffic.total_bytes()
}

#[test]
fn gcc_like_release_syncs_exactly() {
    let pair = release_pair(&gcc_like(0.03));
    let (old, new) = pair.pair(0, 1);
    let bytes = assert_collection_syncs(old, new, &ProtocolConfig::default());
    // Cost far below retransmission.
    assert!(bytes < new.total_bytes() / 5, "cost {bytes} vs {} raw", new.total_bytes());
}

#[test]
fn emacs_like_release_syncs_exactly() {
    let pair = release_pair(&emacs_like(0.02));
    let (old, new) = pair.pair(0, 1);
    assert_collection_syncs(old, new, &ProtocolConfig::default());
}

#[test]
fn web_crawl_syncs_across_intervals() {
    let crawl = web_collection(&web_params(0.004), 7); // 40 pages
    let mut last = 0;
    for days in [1usize, 2, 7] {
        let (old, new) = crawl.pair(0, days);
        let bytes = assert_collection_syncs(old, new, &ProtocolConfig::default());
        assert!(bytes >= last, "cost should not shrink with longer intervals");
        last = bytes;
    }
}

#[test]
fn every_technique_combination_is_exact() {
    let pair = release_pair(&gcc_like(0.01));
    let (old, new) = pair.pair(0, 1);
    // One changed file is enough per combination.
    let changed = new
        .files()
        .iter()
        .find(|nf| old.get(&nf.name).is_some_and(|of| of.data != nf.data))
        .expect("some file changed");
    let old_data = &old.get(&changed.name).unwrap().data;

    for use_continuation in [false, true] {
        for use_decomposable in [false, true] {
            for skip_sibling in [false, true] {
                for verify in [
                    VerifyStrategy::PerCandidate { bits: 16 },
                    VerifyStrategy::GroupTesting {
                        batches: vec![
                            msync::core::BatchConfig { group_size: 4, bits: 14 },
                            msync::core::BatchConfig { group_size: 1, bits: 16 },
                        ],
                    },
                ] {
                    let cfg = ProtocolConfig {
                        use_continuation,
                        use_decomposable,
                        skip_sibling_of_matched: skip_sibling,
                        verify,
                        min_block_cont: if use_continuation { 16 } else { 128 },
                        ..ProtocolConfig::default()
                    };
                    let out = sync_file(old_data, &changed.data, &cfg)
                        .unwrap_or_else(|e| panic!("cfg {cfg:?}: {e}"));
                    assert_eq!(
                        out.reconstructed, changed.data,
                        "wrong bytes with cont={use_continuation} dec={use_decomposable} skip={skip_sibling}"
                    );
                }
            }
        }
    }
}

#[test]
fn weak_verification_still_exact_via_fallback() {
    // 1-bit verification hashes make false confirmations near-certain;
    // the map goes wrong, the delta mismatches, and the file-fingerprint
    // fallback must still deliver exact bytes.
    let old: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect(); // highly repetitive
    let mut new = old.clone();
    for i in (0..new.len()).step_by(997) {
        new[i] ^= 0x55;
    }
    let cfg = ProtocolConfig {
        verify: VerifyStrategy::PerCandidate { bits: 1 },
        global_extra_bits: 0,
        ..ProtocolConfig::default()
    };
    let out = sync_file(&old, &new, &cfg).unwrap();
    assert_eq!(out.reconstructed, new, "fallback must guarantee exactness");
}

#[test]
fn rsync_and_msync_agree_on_every_file() {
    let pair = release_pair(&gcc_like(0.02));
    let (old, new) = pair.pair(0, 1);
    let cfg = ProtocolConfig::default();
    for nf in new.files() {
        let old_data = old.get(&nf.name).map(|f| f.data.clone()).unwrap_or_default();
        let m = sync_file(&old_data, &nf.data, &cfg).unwrap();
        let r = msync::rsync::sync(&old_data, &nf.data, 700);
        assert_eq!(m.reconstructed, nf.data);
        assert_eq!(r.reconstructed, nf.data);
    }
}

#[test]
fn degenerate_files() {
    let cfg = ProtocolConfig::default();
    let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (vec![], vec![]),
        (vec![], b"new content".to_vec()),
        (b"old content".to_vec(), vec![]),
        (b"x".to_vec(), b"y".to_vec()),
        (vec![0u8; 1_000_000], vec![0u8; 999_999]), // huge runs
        (b"abc".repeat(50_000), b"abd".repeat(50_000)), // heavy aliasing
    ];
    for (old, new) in cases {
        let out = sync_file(&old, &new, &cfg).unwrap();
        assert_eq!(out.reconstructed, new, "case old={} new={}", old.len(), new.len());
    }
}

#[test]
fn parameter_file_drives_sync() {
    let text = "min_block_global = 64\nverify = group 4x16, 1x16\ncont_bits = 3\n";
    let cfg = msync::core::params::parse(text).unwrap();
    let old = b"hello world, this is the old file contents ".repeat(500);
    let mut new = old.clone();
    new.extend_from_slice(b"plus an appendix");
    let out = sync_file(&old, &new, &cfg).unwrap();
    assert_eq!(out.reconstructed, new);
}
