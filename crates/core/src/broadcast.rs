//! Broadcast synchronization (paper §7: "we plan to look at
//! synchronization in asymmetric cases, e.g., in cases with server
//! broadcast capability, lower upload speed, or a bottleneck at a busy
//! server").
//!
//! One server updates N clients that hold *different* outdated versions
//! of the same file, over a broadcast downlink: bytes the server sends
//! once reach every client (satellite feeds, IP multicast CDN fills).
//! The interesting question is how much of the protocol is shareable:
//!
//! * the **candidate hashes are broadcast** — they depend only on the
//!   server's file, and the *included-block descriptor* (which blocks of
//!   the recursion are still live for at least one client) costs 2 bits
//!   per parent, so clients with different coverage can all follow one
//!   stream;
//! * decomposable-hash suppression still works, because hash knowledge
//!   comes from the shared stream and is therefore common to all
//!   receivers;
//! * verification, confirmation bitmaps, and the final deltas stay
//!   **individual** — they depend on each client's own file.
//!
//! Continuation probes and sibling-skip are client-specific by nature
//! and are disabled here; the broadcast recursion is the *basic*
//! protocol shared N ways. The `broadcast` experiment quantifies the
//! saving over N independent unicast sessions.

use crate::config::ProtocolConfig;
use crate::coverage::Coverage;
use crate::index::first_positions;
use crate::items::global_hash_bits;
use crate::map::{FileMap, Segment};
use crate::session::{sync_file, SyncError};
use crate::verify::{StepOutcome, VerifyState};
use msync_hash::decomposable::{prefix_decompose_right, DecomposableDigest};
use msync_hash::{file_fingerprint, BitReader, BitWriter, Md5};
use msync_protocol::frame_wire_size;

/// One included block of the shared recursion.
#[derive(Debug, Clone, Copy)]
struct Block {
    off: u64,
    len: u64,
    /// Derivable from parent + left sibling (both in the shared stream).
    suppressed: bool,
}

/// Outcome of a broadcast session.
#[derive(Debug, Clone)]
pub struct BroadcastOutcome {
    /// Each client's (exact) reconstruction.
    pub reconstructed: Vec<Vec<u8>>,
    /// Downlink bytes sent **once** for all clients (descriptors +
    /// candidate hashes).
    pub shared_s2c: u64,
    /// Downlink bytes sent per client (confirmations + deltas), summed.
    pub individual_s2c: u64,
    /// Uplink bytes, summed over clients.
    pub c2s: u64,
    /// What N independent unicast sessions with the same (basic)
    /// configuration would cost in total.
    pub unicast_total: u64,
}

impl BroadcastOutcome {
    /// Total downlink+uplink under broadcast.
    pub fn broadcast_total(&self) -> u64 {
        self.shared_s2c + self.individual_s2c + self.c2s
    }
}

/// Run the broadcast protocol: `new` at the server, one outdated version
/// per client in `olds`.
pub fn sync_broadcast(
    new: &[u8],
    olds: &[&[u8]],
    cfg: &ProtocolConfig,
) -> Result<BroadcastOutcome, SyncError> {
    cfg.validate().map_err(SyncError::Config)?;
    let n_clients = olds.len();
    let new_len = new.len() as u64;
    let max_old = olds.iter().map(|o| o.len() as u64).max().unwrap_or(0);
    let bits = global_hash_bits(max_old, cfg.global_extra_bits);

    let mut shared_s2c = 0u64;
    let mut individual_s2c = 0u64;
    let mut c2s = 0u64;

    // Setup: per-client fingerprints travel individually.
    c2s += n_clients as u64 * frame_wire_size(16 + 2);
    individual_s2c += n_clients as u64 * frame_wire_size(16 + 2);

    let mut coverages: Vec<Coverage> = vec![Coverage::new(); n_clients];
    let mut maps: Vec<FileMap> = vec![FileMap::new(); n_clients];

    // The shared *live span* set: regions that may still hold unmatched
    // content for some client. Clients track it from the descriptors, so
    // it is the one piece of cross-client state everyone agrees on.
    let mut live = Coverage::new();
    live.insert(0, new_len);
    // Hash prefixes (shared knowledge) of the previous level's full-size
    // included blocks, for decomposing suppressed right children.
    let mut prev_values: HashMap<(u64, u64), u64> = HashMap::new();

    let mut d = cfg.start_block as u64;
    while d >= cfg.min_block_global as u64 && live.covered_bytes() > 0 && new_len > 0 {
        // Descriptor: one bit per grid block inside the live spans
        // (sub-half tails pass through silently — grid arithmetic tells
        // every client the same thing).
        let mut included: Vec<Block> = Vec::new();
        let mut new_live = Coverage::new();
        let mut descriptor_bits = 0u64;
        let n_blocks = new_len.div_ceil(d);
        for i in 0..n_blocks {
            let off = i * d;
            let len = d.min(new_len - off);
            if live.is_free(off, len) {
                continue; // outside the live spans: settled at a previous level
            }
            if len * 2 < d {
                new_live.insert(off, len); // too small now; deeper levels retry
                continue;
            }
            descriptor_bits += 1;
            let live_for_some = coverages.iter().any(|cov| cov.is_free(off, len));
            if !live_for_some {
                continue;
            }
            included.push(Block { off, len, suppressed: false });
            new_live.insert(off, len);
        }
        shared_s2c += frame_wire_size((descriptor_bits as usize).div_ceil(8));
        if included.is_empty() {
            live = new_live;
            d /= 2;
            continue;
        }

        // Decomposable suppression over adjacent full-size pairs whose
        // parent hash everyone got at the previous level.
        if cfg.use_decomposable {
            for i in 1..included.len() {
                let (l, r) = (included[i - 1], included[i]);
                let parent_off = r.off & !(2 * d - 1);
                if l.len == d
                    && r.len == d
                    && l.off == parent_off
                    && r.off == parent_off + d
                    && prev_values.contains_key(&(parent_off, 2 * d))
                {
                    included[i].suppressed = true;
                }
            }
        }

        // Broadcast the hash stream once.
        let mut stream = BitWriter::new();
        for b in &included {
            if !b.suppressed {
                let h = DecomposableDigest::of(&new[b.off as usize..(b.off + b.len) as usize]);
                stream.write_bits(h.prefix(bits), bits);
            }
        }
        shared_s2c += frame_wire_size(stream.byte_len());
        let stream_bytes = stream.into_bytes();

        // Every client recovers the same per-block values (reading or
        // deriving), independent of its own coverage.
        let mut shared_values: Vec<u64> = Vec::with_capacity(included.len());
        {
            let mut r = BitReader::new(&stream_bytes);
            for (i, b) in included.iter().enumerate() {
                let v = if b.suppressed {
                    let parent = prev_values[&(b.off & !(2 * d - 1), 2 * d)];
                    prefix_decompose_right(parent, shared_values[i - 1], bits, b.len)
                } else {
                    r.read_bits(bits).map_err(|_| SyncError::Desync("broadcast stream"))?
                };
                shared_values.push(v);
            }
        }

        // Individual phase: candidates, verification, confirmations.
        for (ci, old) in olds.iter().enumerate() {
            let (live_blocks, targets): (Vec<Block>, Vec<u64>) = included
                .iter()
                .zip(&shared_values)
                .filter(|(b, _)| b.len == d && coverages[ci].is_free(b.off, b.len))
                .map(|(b, &v)| (*b, v))
                .unzip();
            let mut candidates = Vec::new();
            let mut cand_blocks = Vec::new();
            let positions = first_positions(old, d as usize, bits, &targets);
            for (b, pos) in live_blocks.into_iter().zip(positions) {
                if let Some(old_pos) = pos {
                    candidates.push(Candidate { old_pos });
                    cand_blocks.push(b);
                }
            }
            // Uplink: candidate bitmap over the included blocks.
            c2s += frame_wire_size((included.len()).div_ceil(8));

            let mut verify = VerifyState::new(&cfg.verify, candidates.len());
            while !verify.is_trivially_done() {
                let vb = verify.batch_config().bits;
                let mut uplink = BitWriter::new();
                let mut results = Vec::new();
                for group in verify.groups() {
                    let mut cbuf = Vec::new();
                    let mut sbuf = Vec::new();
                    for &g in group {
                        let c = candidates[g];
                        let b = cand_blocks[g];
                        cbuf.extend_from_slice(
                            &olds[ci][c.old_pos as usize..(c.old_pos + b.len) as usize],
                        );
                        sbuf.extend_from_slice(&new[b.off as usize..(b.off + b.len) as usize]);
                    }
                    uplink.write_bits(Md5::digest_bits(&cbuf, vb), vb);
                    results.push(Md5::digest_bits(&cbuf, vb) == Md5::digest_bits(&sbuf, vb));
                }
                c2s += frame_wire_size(uplink.byte_len());
                individual_s2c += frame_wire_size(results.len().div_ceil(8));
                let outcome = verify.apply_results(&results);
                if outcome == StepOutcome::Done {
                    break;
                }
            }
            for &g in verify.confirmed() {
                let c = candidates[g];
                let b = cand_blocks[g];
                coverages[ci].insert(b.off, b.len);
                maps[ci].insert(Segment { new_off: b.off, old_off: c.old_pos, len: b.len });
            }
        }

        prev_values = included
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len == d)
            .map(|(i, b)| ((b.off, b.len), shared_values[i]))
            .collect();
        live = new_live;
        d /= 2;
    }

    // Individual delta phase + fingerprint-checked reconstruction.
    let mut reconstructed = Vec::with_capacity(n_clients);
    let new_fp = file_fingerprint(new);
    for (ci, old) in olds.iter().enumerate() {
        let mut reference = Vec::with_capacity(coverages[ci].covered_bytes() as usize);
        for &(s, e) in coverages[ci].intervals() {
            reference.extend_from_slice(&new[s as usize..e as usize]);
        }
        let delta = msync_compress::delta_encode(&reference, new);
        individual_s2c += frame_wire_size(delta.len());
        let client_ref = maps[ci].reference_from_old(old);
        let out = msync_compress::delta_decode(&client_ref, &delta)
            .ok()
            .filter(|o| file_fingerprint(o) == new_fp)
            .unwrap_or_else(|| {
                // Residual failure: individual full resend.
                let full = msync_compress::compress(new);
                individual_s2c += frame_wire_size(full.len());
                new.to_vec()
            });
        reconstructed.push(out);
    }

    // Unicast comparison: N independent basic sessions (same feature
    // set as the broadcast recursion).
    let unicast_cfg = ProtocolConfig {
        use_continuation: false,
        skip_sibling_of_matched: false,
        min_block_cont: cfg.min_block_global,
        ..cfg.clone()
    };
    let mut unicast_total = 0u64;
    for old in olds {
        unicast_total += sync_file(old, new, &unicast_cfg)?.stats.total_bytes();
    }

    Ok(BroadcastOutcome { reconstructed, shared_s2c, individual_s2c, c2s, unicast_total })
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    old_pos: u64,
}

use std::collections::HashMap;

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    fn cfg() -> ProtocolConfig {
        ProtocolConfig { start_block: 1 << 12, min_block_global: 64, ..Default::default() }
    }

    #[test]
    fn all_clients_reconstruct_exactly() {
        let new = blob(40_000, 1);
        let mut olds: Vec<Vec<u8>> = Vec::new();
        for i in 0..4u64 {
            let mut o = new.clone();
            let at = 5_000 + 7_000 * i as usize;
            o.splice(at..at + 100, blob(150, 100 + i));
            olds.push(o);
        }
        let refs: Vec<&[u8]> = olds.iter().map(|o| o.as_slice()).collect();
        let out = sync_broadcast(&new, &refs, &cfg()).unwrap();
        for r in &out.reconstructed {
            assert_eq!(r, &new);
        }
    }

    #[test]
    fn broadcast_beats_unicast_when_clients_miss_the_same_region() {
        // The CDN-fill case: every edge node is stale on the *same*
        // updated region (they all hold versions predating one edit), so
        // the live-block union equals a single client's live set and the
        // shared hash stream is paid once instead of N times.
        let new = blob(60_000, 2);
        let mut olds: Vec<Vec<u8>> = Vec::new();
        for i in 0..8u64 {
            let mut o = new.clone();
            // Same region stale everywhere; contents differ per client.
            o.splice(20_000..20_400, blob(400, 100 + i));
            olds.push(o);
        }
        let refs: Vec<&[u8]> = olds.iter().map(|o| o.as_slice()).collect();
        let out = sync_broadcast(&new, &refs, &cfg()).unwrap();
        for r in &out.reconstructed {
            assert_eq!(r, &new);
        }
        assert!(
            out.broadcast_total() < out.unicast_total,
            "broadcast {} vs unicast {}",
            out.broadcast_total(),
            out.unicast_total
        );
    }

    #[test]
    fn disjoint_changes_degrade_gracefully() {
        // When every client misses a *different* region, the live-block
        // union is the sum of the parts and broadcast cannot win — but
        // it must stay in the same ballpark as unicast.
        let new = blob(60_000, 2);
        let mut olds: Vec<Vec<u8>> = Vec::new();
        for i in 0..8u64 {
            let mut o = new.clone();
            o[(3_000 * (i as usize + 1)) % 50_000] ^= 0xFF;
            olds.push(o);
        }
        let refs: Vec<&[u8]> = olds.iter().map(|o| o.as_slice()).collect();
        let out = sync_broadcast(&new, &refs, &cfg()).unwrap();
        for r in &out.reconstructed {
            assert_eq!(r, &new);
        }
        assert!(out.broadcast_total() < out.unicast_total * 3 / 2);
    }

    #[test]
    fn single_client_roughly_matches_unicast() {
        let new = blob(30_000, 3);
        let mut old = new.clone();
        old.splice(10_000..10_050, blob(80, 9));
        let refs: Vec<&[u8]> = vec![&old];
        let out = sync_broadcast(&new, &refs, &cfg()).unwrap();
        assert_eq!(out.reconstructed[0], new);
        // Same family of protocol: within 2× of a unicast basic run.
        assert!(out.broadcast_total() < out.unicast_total * 2);
    }

    #[test]
    fn identical_client_costs_little() {
        let new = blob(20_000, 4);
        let far = blob(20_000, 5);
        let refs: Vec<&[u8]> = vec![&new, &far];
        let out = sync_broadcast(&new, &refs, &cfg()).unwrap();
        assert_eq!(out.reconstructed[0], new);
        assert_eq!(out.reconstructed[1], new);
    }

    #[test]
    fn empty_inputs() {
        let out = sync_broadcast(b"", &[], &cfg()).unwrap();
        assert!(out.reconstructed.is_empty());
        let old: &[u8] = b"";
        let out = sync_broadcast(b"fresh", &[old], &cfg()).unwrap();
        assert_eq!(out.reconstructed[0], b"fresh");
    }
}
