//! A from-scratch reimplementation of the **rsync algorithm**
//! (Tridgell & MacKerras), the baseline the paper improves on.
//!
//! Protocol (one roundtrip):
//!
//! 1. the client partitions its outdated file into fixed-size blocks and
//!    sends a 4-byte rolling checksum + 2-byte MD4 truncation per block;
//! 2. the server slides a window over its current file, matching against
//!    the received signatures at *every* offset (the rolling checksum
//!    makes this O(1) per position), and answers with a stream of literal
//!    bytes and block indices, compressed gzip-style;
//! 3. the client replays the stream against its own blocks.
//!
//! A strong whole-file fingerprint guards against the (unlikely) failure
//! of both checksums, in which case the server falls back to sending the
//! compressed file.
//!
//! Two variants are exposed, matching the paper's comparison columns:
//! [`sync`] with a caller-chosen (default 700-byte) block size, and
//! [`optimal::sync_optimal`] — an idealized rsync that knows the best
//! power-of-two block size for each file.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod matcher;
pub mod optimal;
pub mod reconstruct;
pub mod signature;

pub use signature::{Signatures, DEFAULT_BLOCK_SIZE};

use msync_hash::file_fingerprint;
use msync_protocol::{Direction, Phase, TrafficStats};

/// Result of one rsync run.
#[derive(Debug, Clone)]
pub struct RsyncOutcome {
    /// The client's reconstruction of the server's file.
    pub reconstructed: Vec<u8>,
    /// Wire traffic, split by direction and phase.
    pub stats: TrafficStats,
    /// Whether the strong-fingerprint fallback (full file transfer) fired.
    pub fell_back: bool,
}

/// Synchronize `old` (client) to `new` (server) with the given block
/// size, accounting every byte that would cross the wire.
///
/// rsync is single-roundtrip and fully deterministic, so rather than
/// spinning up channel threads the driver performs the three steps
/// in-process and charges each message to the shared [`TrafficStats`];
/// byte counts are identical to a channel run (framing included).
pub fn sync(old: &[u8], new: &[u8], block_size: usize) -> RsyncOutcome {
    let mut stats = TrafficStats::new();

    // Setup: the client announces the file with its strong fingerprint
    // (used by collection sync to skip unchanged files and to verify the
    // result). 16 bytes upstream is the paper's accounting.
    let old_fp = file_fingerprint(old);
    let new_fp = file_fingerprint(new);
    stats.record(Direction::ClientToServer, Phase::Setup, charged(16));
    if old_fp == new_fp {
        stats.roundtrips = 1;
        return RsyncOutcome { reconstructed: old.to_vec(), stats, fell_back: false };
    }

    // Step 1: client → server signatures (uncompressed, as in rsync).
    let sigs = Signatures::compute(old, block_size);
    let sig_wire = sigs.encode();
    stats.record(Direction::ClientToServer, Phase::Map, charged(sig_wire.len()));

    // Steps 2–3: server matches and sends the compressed token stream,
    // client replays it. The streams are self-produced so the decodes
    // cannot fail in practice, but protocol code must not panic: any
    // failure degrades to the same full-file fallback a checksum
    // collision takes.
    let reconstructed = (|| {
        let sigs_at_server = Signatures::decode(&sig_wire)?;
        let tokens = matcher::match_tokens(new, &sigs_at_server);
        let token_wire = msync_compress::compress(&matcher::serialize_tokens(&tokens));
        stats.record(Direction::ServerToClient, Phase::Delta, charged(token_wire.len()));
        let decoded = matcher::deserialize_tokens(&msync_compress::decompress(&token_wire).ok()?)?;
        reconstruct::apply(old, &sigs, &decoded).ok()
    })();

    stats.roundtrips = 1;
    if let Some(reconstructed) = reconstructed.filter(|r| file_fingerprint(r) == new_fp) {
        RsyncOutcome { reconstructed, stats, fell_back: false }
    } else {
        // Checksum collision slipped a wrong block through: fall back to
        // transferring the whole compressed file (paper §2.2: "or we can
        // simply transfer the entire file").
        let full = msync_compress::compress(new);
        stats.record(Direction::ServerToClient, Phase::Delta, charged(full.len()));
        stats.roundtrips = 2;
        RsyncOutcome { reconstructed: new.to_vec(), stats, fell_back: true }
    }
}

/// Frame-size charge for a `len`-byte message (varint length prefix).
fn charged(len: usize) -> u64 {
    msync_protocol::frame_wire_size(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u32) -> Vec<u8> {
        (0..n)
            .map(|i| (((i as u32).wrapping_mul(2654435761).wrapping_add(seed)) >> 24) as u8)
            .collect()
    }

    #[test]
    fn sync_reconstructs_exactly() {
        let old = sample(20_000, 1);
        let mut new = old.clone();
        new.splice(3_000..3_100, b"replacement segment".iter().copied());
        new.truncate(18_000);
        let out = sync(&old, &new, 700);
        assert_eq!(out.reconstructed, new);
        assert!(!out.fell_back);
    }

    #[test]
    fn unchanged_file_costs_only_fingerprint() {
        let data = sample(50_000, 2);
        let out = sync(&data, &data, 700);
        assert_eq!(out.reconstructed, data);
        assert!(out.stats.total_bytes() < 32);
    }

    #[test]
    fn small_change_is_cheap() {
        let old = sample(100_000, 3);
        let mut new = old.clone();
        new[50_000] ^= 0xFF;
        let out = sync(&old, &new, 700);
        assert_eq!(out.reconstructed, new);
        // One dirty block of 700 B + signatures (6 B per 700 B block).
        assert!(
            out.stats.total_bytes() < 4_000,
            "cost {} for a 1-byte change",
            out.stats.total_bytes()
        );
    }

    #[test]
    fn completely_new_file_still_correct() {
        let old = sample(10_000, 4);
        let new = sample(10_000, 999);
        let out = sync(&old, &new, 700);
        assert_eq!(out.reconstructed, new);
    }

    #[test]
    fn empty_files() {
        let out = sync(b"", b"", 700);
        assert_eq!(out.reconstructed, b"");
        let out = sync(b"", b"fresh content", 700);
        assert_eq!(out.reconstructed, b"fresh content");
        let out = sync(b"old content", b"", 700);
        assert_eq!(out.reconstructed, b"");
    }

    #[test]
    fn stats_directions_split() {
        let old = sample(50_000, 5);
        let mut new = old.clone();
        new[0] = !new[0];
        let out = sync(&old, &new, 700);
        // Signatures upstream: ~6 B per block ≈ 72 blocks ≈ 430 B.
        assert!(out.stats.total_c2s() > 300);
        assert!(out.stats.total_s2c() > 0);
        assert_eq!(out.stats.roundtrips, 1);
    }

    #[test]
    fn block_move_detected() {
        // Swap two halves: rsync matches both halves as blocks.
        let a = sample(10_000, 6);
        let b = sample(10_000, 7);
        let old = [a.clone(), b.clone()].concat();
        let new = [b, a].concat();
        let out = sync(&old, &new, 500);
        assert_eq!(out.reconstructed, new);
        assert!(out.stats.total_bytes() < 2_000, "block move cost {}", out.stats.total_bytes());
    }
}
