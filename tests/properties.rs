//! Randomized property tests over the core invariants.
//!
//! The one invariant the whole system hangs on: *whatever the inputs,
//! the client ends up with exactly the server's bytes.* Plus the
//! algebraic identities of the decomposable hash and the lossless-coding
//! roundtrips, which the protocol's correctness argument relies on.
//!
//! These were proptest strategies in an earlier revision; the offline
//! build (see DESIGN.md) replaces them with explicit deterministic
//! case loops over the vendored [`msync::corpus::Rng`]. Every case is
//! reproducible from its printed seed.

use msync::core::{sync_file, ProtocolConfig, VerifyStrategy};
use msync::corpus::Rng;
use msync::hashes::decomposable::{
    prefix_decompose_left, prefix_decompose_right, DecomposableDigest,
};
use msync::hashes::rolling::RollingHash;
use msync::hashes::{BitReader, BitWriter, DecomposableAdler};

/// Byte vectors with adversarial structure: random, repetitive, and
/// phrase-repeating segments — the same three shapes the old proptest
/// strategy drew from.
fn gen_file(rng: &mut Rng, max: usize) -> Vec<u8> {
    let n = rng.gen_range(0..=max);
    gen_sized(rng, n)
}

/// `n` bytes in one of [`gen_file`]'s three shapes.
fn gen_sized(rng: &mut Rng, n: usize) -> Vec<u8> {
    match rng.gen_range(0..3u32) {
        0 => (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect(),
        1 => {
            // Low-entropy: few distinct bytes, long runs.
            let alphabet = [0u8, 1, b'a'];
            (0..n).map(|_| alphabet[rng.gen_range(0..3usize)]).collect()
        }
        _ => {
            // Repeating phrase with occasional noise.
            let phrase = b"the quick brown fox ";
            let salt = rng.gen_range(0..256u32) as u8;
            (0..n)
                .map(|i| {
                    if i % 97 == 0 {
                        salt.wrapping_add((i % 256) as u8)
                    } else {
                        phrase[i % phrase.len()]
                    }
                })
                .collect()
        }
    }
}

/// A derived version: the old file plus random splices.
fn edited_pair(rng: &mut Rng, max: usize) -> (Vec<u8>, Vec<u8>) {
    let old = gen_file(rng, max);
    let mut new = old.clone();
    for _ in 0..rng.gen_range(0..5u32) {
        let insert = gen_file(rng, 64);
        if new.is_empty() {
            new = insert;
            continue;
        }
        let at = rng.gen_range(0..new.len());
        let del = (insert.len() / 2).min(new.len() - at);
        new.splice(at..at + del, insert);
    }
    (old, new)
}

fn quick_cfg() -> ProtocolConfig {
    ProtocolConfig {
        start_block: 1 << 10,
        min_block_global: 32,
        min_block_cont: 8,
        ..ProtocolConfig::default()
    }
}

/// Run `cases` deterministic cases, seeding each from `tag ^ case index`
/// so a failure names the exact reproducing seed.
fn for_cases(tag: u64, cases: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = tag ^ case;
        let mut rng = Rng::seed_from_u64(seed);
        body(&mut rng);
    }
}

#[test]
fn msync_reconstructs_exactly() {
    for_cases(0x6d73796e_0001, 64, |rng| {
        let (old, new) = edited_pair(rng, 4096);
        let out = sync_file(&old, &new, &quick_cfg()).unwrap();
        assert_eq!(out.reconstructed, new);
    });
}

#[test]
fn msync_exact_with_weak_hashes() {
    // Deliberately weak parameters: correctness must come from the
    // fingerprint fallback, not from hash strength.
    let cfg = ProtocolConfig {
        global_extra_bits: 0,
        cont_bits: 1,
        verify: VerifyStrategy::PerCandidate { bits: 2 },
        ..quick_cfg()
    };
    for_cases(0x6d73796e_0002, 64, |rng| {
        let (old, new) = edited_pair(rng, 2048);
        let out = sync_file(&old, &new, &cfg).unwrap();
        assert_eq!(out.reconstructed, new);
    });
}

#[test]
fn max_positions_per_hash_is_inert() {
    // The sync takes the lowest matching position per hash and nothing
    // else; the field survives only for the benchmark's index replay.
    for_cases(0x6d73796e_0016, 32, |rng| {
        let (old, new) = edited_pair(rng, 4096);
        let one = ProtocolConfig { max_positions_per_hash: 1, ..quick_cfg() };
        let many = ProtocolConfig { max_positions_per_hash: 1 << 20, ..quick_cfg() };
        let (a, b) = (sync_file(&old, &new, &one).unwrap(), sync_file(&old, &new, &many).unwrap());
        assert_eq!(a.stats.traffic, b.stats.traffic);
        assert_eq!(a.stats.levels, b.stats.levels);
        assert_eq!(a.reconstructed, new);
        assert_eq!(b.reconstructed, new);
    });
}

#[test]
fn rsync_reconstructs_exactly() {
    for_cases(0x6d73796e_0003, 64, |rng| {
        let (old, new) = edited_pair(rng, 4096);
        let out = msync::rsync::sync(&old, &new, 128);
        assert_eq!(out.reconstructed, new);
    });
}

#[test]
fn lz_roundtrip() {
    for_cases(0x6d73796e_0004, 64, |rng| {
        let data = gen_file(rng, 8192);
        let c = msync::compress::compress(&data);
        assert_eq!(msync::compress::decompress(&c).unwrap(), data);
    });
}

#[test]
fn delta_roundtrip() {
    for_cases(0x6d73796e_0005, 64, |rng| {
        let reference = gen_file(rng, 4096);
        let target = gen_file(rng, 4096);
        let d = msync::compress::delta_encode(&reference, &target);
        assert_eq!(msync::compress::delta_decode(&reference, &d).unwrap(), target);
    });
}

#[test]
fn delta_roundtrip_similar() {
    for_cases(0x6d73796e_0006, 64, |rng| {
        let (old, new) = edited_pair(rng, 4096);
        let d = msync::compress::delta_encode(&old, &new);
        assert_eq!(msync::compress::delta_decode(&old, &d).unwrap(), new);
        // Identity-ish deltas stay small relative to the file.
        if old == new && !old.is_empty() {
            assert!(d.len() < old.len().max(256));
        }
    });
}

#[test]
fn vcdiff_roundtrip() {
    for_cases(0x6d73796e_0007, 64, |rng| {
        let reference = gen_file(rng, 4096);
        let target = gen_file(rng, 4096);
        let d = msync::compress::vcdiff_encode(&reference, &target);
        assert_eq!(msync::compress::vcdiff_decode(&reference, &d).unwrap(), target);
    });
}

#[test]
fn coders_ignore_reused_scratch() {
    // The hash-chain head tables are pooled per thread and reset on
    // return. Interleaving the three coders on one thread, at sizes on
    // both sides of the sparse-reset threshold (2 048 indexed positions)
    // and above 64 KiB, must give the bytes a fresh thread gives.
    type Coder = fn(&[u8], &[u8]) -> Vec<u8>;
    let coders: [(&str, Coder); 3] = [
        ("delta", msync::compress::delta_encode),
        ("lz", |_, target| msync::compress::compress(target)),
        ("vcdiff", msync::compress::vcdiff_encode),
    ];
    let size = |rng: &mut Rng| match rng.gen_range(0..3u32) {
        0 => rng.gen_range(0..2_000usize),
        1 => rng.gen_range(2_100..16_000usize),
        _ => rng.gen_range(65_536..72_000usize),
    };
    for_cases(0x6d73796e_0017, 24, |rng| {
        let n = size(rng);
        let reference = gen_sized(rng, n);
        let target = if rng.gen_range(0..2u32) == 0 {
            let mut t = reference.clone();
            let at = rng.gen_range(0..=t.len());
            t.splice(at..at, gen_file(rng, 64));
            t
        } else {
            let n = size(rng);
            gen_sized(rng, n)
        };
        for (name, coder) in coders {
            let (r, t) = (reference.clone(), target.clone());
            let fresh = std::thread::spawn(move || coder(&r, &t)).join().unwrap();
            assert_eq!(coder(&reference, &target), fresh, "{name}, {} -> {} B", n, target.len());
        }
    });
}

#[test]
fn decomposable_compose_decompose() {
    for_cases(0x6d73796e_0008, 64, |rng| {
        let data = gen_file(rng, 2048);
        let split = rng.gen_range(0..=data.len());
        let l = DecomposableDigest::of(&data[..split]);
        let r = DecomposableDigest::of(&data[split..]);
        let p = l.compose(&r);
        assert_eq!(p, DecomposableDigest::of(&data));
        assert_eq!(p.decompose_right(&l), Some(r));
        assert_eq!(p.decompose_left(&r), Some(l));
    });
}

#[test]
fn decomposable_prefix_identities() {
    for_cases(0x6d73796e_0009, 64, |rng| {
        let data = gen_file(rng, 1024);
        let split = rng.gen_range(0..=data.len());
        let bits = rng.gen_range(1..=64u32);
        let l = DecomposableDigest::of(&data[..split]);
        let r = DecomposableDigest::of(&data[split..]);
        let p = l.compose(&r);
        assert_eq!(
            prefix_decompose_right(p.prefix(bits), l.prefix(bits), bits, r.len),
            r.prefix(bits)
        );
        assert_eq!(
            prefix_decompose_left(p.prefix(bits), r.prefix(bits), bits, r.len),
            l.prefix(bits)
        );
    });
}

#[test]
fn rolling_equals_recompute() {
    for_cases(0x6d73796e_000a, 32, |rng| {
        let n = rng.gen_range(2..512usize);
        let data: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
        let window = 1 + rng.gen_range(0..data.len() - 1);
        let mut h = DecomposableAdler::new();
        h.reset(&data[..window]);
        for start in 1..=(data.len() - window) {
            h.roll(data[start - 1], data[start + window - 1]);
            assert_eq!(h.value(), DecomposableDigest::of(&data[start..start + window]).value());
        }
    });
}

#[test]
fn bitio_roundtrip() {
    for_cases(0x6d73796e_000b, 64, |rng| {
        let ops: Vec<(u64, u32)> = (0..rng.gen_range(0..64u32))
            .map(|_| (rng.next_u64(), rng.gen_range(0..=64u32)))
            .collect();
        let mut w = BitWriter::new();
        for &(v, bits) in &ops {
            w.write_bits(v, bits);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, bits) in &ops {
            let expect = if bits == 64 {
                v
            } else if bits == 0 {
                0
            } else {
                v & ((1u64 << bits) - 1)
            };
            assert_eq!(r.read_bits(bits).unwrap(), expect);
        }
    });
}

#[test]
fn fingerprints_separate() {
    for_cases(0x6d73796e_000c, 64, |rng| {
        let a = gen_file(rng, 512);
        let b = gen_file(rng, 512);
        let fa = msync::hashes::file_fingerprint(&a);
        let fb = msync::hashes::file_fingerprint(&b);
        assert_eq!(a == b, fa == fb);
    });
}

#[test]
fn md5_md4_incremental() {
    for_cases(0x6d73796e_000d, 64, |rng| {
        let data = gen_file(rng, 2048);
        let chunk = rng.gen_range(1..64usize);
        let mut m5 = msync::hashes::Md5::new();
        let mut m4 = msync::hashes::Md4::new();
        for chunk in data.chunks(chunk) {
            m5.update(chunk);
            m4.update(chunk);
        }
        assert_eq!(m5.finish(), msync::hashes::Md5::digest(&data));
        assert_eq!(m4.finish(), msync::hashes::Md4::digest(&data));
    });
}

/// Decoders must never panic on adversarial input — corrupt streams are
/// a fact of life for a network tool. (Errors are fine; panics are not.)
mod decoder_robustness {
    use super::{edited_pair, for_cases, gen_file};

    fn junk(rng: &mut msync::corpus::Rng, max: usize) -> Vec<u8> {
        let n = rng.gen_range(0..=max);
        (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect()
    }

    #[test]
    fn lz_decompress_never_panics() {
        for_cases(0x6a756e6b_0001, 256, |rng| {
            let _ = msync::compress::decompress(&junk(rng, 2048));
        });
    }

    #[test]
    fn delta_decode_never_panics() {
        for_cases(0x6a756e6b_0002, 256, |rng| {
            let reference = junk(rng, 512);
            let _ = msync::compress::delta_decode(&reference, &junk(rng, 2048));
        });
    }

    #[test]
    fn vcdiff_decode_never_panics() {
        for_cases(0x6a756e6b_0003, 256, |rng| {
            let reference = junk(rng, 512);
            let _ = msync::compress::vcdiff_decode(&reference, &junk(rng, 2048));
        });
    }

    #[test]
    fn signature_decode_never_panics() {
        for_cases(0x6a756e6b_0004, 256, |rng| {
            let _ = msync::rsync::Signatures::decode(&junk(rng, 1024));
        });
    }

    #[test]
    fn token_deserialize_never_panics() {
        for_cases(0x6a756e6b_0005, 256, |rng| {
            let _ = msync::rsync::matcher::deserialize_tokens(&junk(rng, 1024));
        });
    }

    #[test]
    fn bit_corrupted_delta_decodes_or_errors_never_panics() {
        for_cases(0x6a756e6b_0006, 128, |rng| {
            // Flip one bit in a real delta: the decoder must either
            // error or produce bytes — and if it produces the *right*
            // bytes the flip hit padding. It must never panic; the
            // outer fingerprint check (exercised in the sync tests)
            // catches wrong output.
            let (old, new) = edited_pair(rng, 2048);
            let mut d = msync::compress::delta_encode(&old, &new);
            if !d.is_empty() {
                let bit = rng.gen_range(0..d.len() * 8);
                d[bit / 8] ^= 1 << (bit % 8);
                let _ = msync::compress::delta_decode(&old, &d);
            }
        });
    }

    #[test]
    fn gen_file_shapes_are_exercised() {
        // Guard against the generator degenerating: all three shapes and
        // a spread of lengths must appear across the seed range.
        let mut empties = 0;
        let mut large = 0;
        for_cases(0x6a756e6b_0007, 64, |rng| {
            let f = gen_file(rng, 4096);
            if f.is_empty() {
                empties += 1;
            }
            if f.len() > 1024 {
                large += 1;
            }
        });
        assert!(large > 5, "generator never produced large files");
        assert!(empties < 60, "generator produced almost only empty files");
    }
}

/// Cross-implementation agreement and the extension surfaces.
mod extensions {
    use super::{edited_pair, for_cases};
    use msync::cdc::ChunkParams;
    use msync::core::{sync_collection_channel, ChannelOptions, FileEntry, ProtocolConfig};
    use msync::trace::Recorder;

    #[test]
    fn cdc_sync_reconstructs_exactly() {
        for_cases(0x65787431, 32, |rng| {
            let (old, new) = edited_pair(rng, 8192);
            let params = ChunkParams { avg_size: 512, min_size: 64, max_size: 4096 };
            let out = msync::cdc::sync(&old, &new, &params);
            assert_eq!(out.reconstructed, new);
        });
    }

    #[test]
    fn channel_sync_reconstructs_exactly() {
        let cfg = ProtocolConfig {
            start_block: 1 << 10,
            min_block_global: 32,
            min_block_cont: 8,
            ..ProtocolConfig::default()
        };
        for_cases(0x65787433, 32, |rng| {
            // On the wire a single file is a one-entry collection.
            let (old, new) = edited_pair(rng, 4096);
            let (old, new) = ([FileEntry::new("f", old)], [FileEntry::new("f", new)]);
            let opts = ChannelOptions::default();
            let out = sync_collection_channel(&old, &new, &cfg, &opts, &Recorder::off()).unwrap();
            assert_eq!(out.files, new);
        });
    }

    #[test]
    fn collection_mixes_settle_unchanged_files_up_front() {
        use msync::core::{serve_collection, sync_collection_client, PipelineOptions};
        use msync::protocol::{Endpoint, RetryPolicy};
        let cfg = super::quick_cfg();
        for_cases(0x65787434, 24, |rng| {
            // Unchanged, edited, created and deleted files under names
            // that share prefixes, as a crawl's do.
            let (mut old, mut new) = (Vec::new(), Vec::new());
            for i in 0..rng.gen_range(0..24u32) {
                let name = format!("d{}/page_{i:03}.html", rng.gen_range(0..3u32));
                let (o, n) = edited_pair(rng, 2048);
                match rng.gen_range(0..4u32) {
                    0 => {
                        old.push(FileEntry::new(name.clone(), n.clone()));
                        new.push(FileEntry::new(name, n));
                    }
                    1 => {
                        old.push(FileEntry::new(name.clone(), o));
                        new.push(FileEntry::new(name, n));
                    }
                    2 => new.push(FileEntry::new(name, n)),
                    _ => old.push(FileEntry::new(name, o)),
                }
            }
            let (mut client_ep, mut server_ep) = Endpoint::pair();
            let (out, served) = std::thread::scope(|s| {
                let server = s
                    .spawn(|| serve_collection(&mut server_ep, &new, &cfg, RetryPolicy::default()));
                let opts = PipelineOptions::default();
                let out = sync_collection_client(&mut client_ep, &old, &cfg, &opts).unwrap();
                drop(client_ep);
                (out, server.join().unwrap().unwrap())
            });
            let mut want = new.clone();
            want.sort_by(|a, b| a.name.cmp(&b.name));
            assert_eq!(out.files, want);
            let local = |name: &str| old.iter().find(|f| f.name == name);
            let same = |f: &FileEntry| local(&f.name).is_some_and(|o| o.data == f.data);
            let unchanged = new.iter().filter(|f| same(f)).count();
            let created = new.iter().filter(|f| local(&f.name).is_none()).count();
            assert_eq!((out.unchanged, out.created), (unchanged, created));
            assert_eq!(out.deleted, old.len() + created - new.len());
            assert_eq!(served.sessions, new.len() - unchanged, "changed + created");
            for ((name, stats), f) in out.per_file.iter().zip(&want) {
                if same(f) {
                    assert_eq!(stats.traffic.total_bytes(), 0, "{name} is unchanged");
                }
            }
        });
    }
}

/// Structural invariants of the shared interval machinery.
mod structures {
    use super::for_cases;
    use msync::core::coverage::Coverage;

    #[test]
    fn coverage_invariants_under_disjoint_inserts() {
        for_cases(0x73747231, 128, |rng| {
            // Interpret each value as a grid slot of width 16; dedup to
            // keep inserts disjoint.
            let mut slots: Vec<u64> =
                (0..rng.gen_range(1..40u32)).map(|_| u64::from(rng.gen_range(0..200u32))).collect();
            slots.sort_unstable();
            slots.dedup();
            let mut c = Coverage::new();
            let mut order = slots.clone();
            // Insert in a scrambled but deterministic order.
            order.reverse();
            let mut total = 0u64;
            for s in order {
                c.insert(s * 16, 16);
                total += 16;
            }
            assert_eq!(c.covered_bytes(), total);
            // Intervals sorted, disjoint, non-touching.
            let iv = c.intervals();
            for w in iv.windows(2) {
                assert!(w[0].1 < w[1].0, "{iv:?}");
            }
            // Every inserted slot contained; gaps free.
            for &s in &slots {
                assert!(c.contains(s * 16, 16));
            }
            for probe in 0..200u64 {
                let inside = slots.contains(&probe);
                assert_eq!(c.contains(probe * 16, 16), inside);
                assert_eq!(c.is_free(probe * 16, 16), !inside);
            }
        });
    }
}
