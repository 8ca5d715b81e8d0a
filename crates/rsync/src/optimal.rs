//! Idealized rsync with per-file optimal block size.
//!
//! The paper compares not just against rsync's default block size but
//! against "rsync with an optimally chosen block size for each individual
//! file" — an oracle no real deployment has, but a fair strongest-form
//! baseline. This module sweeps power-of-two block sizes and reports the
//! cheapest run.

use crate::{sync, RsyncOutcome};

/// Block sizes the oracle considers (the paper notes the optimum is
/// usually within a small factor of the best power of two).
pub const CANDIDATE_SIZES: &[usize] = &[64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Run rsync at every candidate block size and return the cheapest
/// outcome along with the block size that achieved it.
pub fn sync_optimal(old: &[u8], new: &[u8]) -> (RsyncOutcome, usize) {
    let first = CANDIDATE_SIZES.first().copied().unwrap_or(crate::DEFAULT_BLOCK_SIZE);
    let mut best = (sync(old, new, first), first);
    for &bs in CANDIDATE_SIZES.iter().skip(1) {
        let out = sync(old, new, bs);
        if out.stats.total_bytes() < best.0.stats.total_bytes() {
            best = (out, bs);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize, seed: u32) -> Vec<u8> {
        // xorshift64*: properly incompressible pseudo-random bytes, so
        // literal runs do not vanish under the gzip stage.
        let mut state = seed as u64 | 0x9E37_79B9_0000_0001;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn optimal_not_worse_than_default_candidates() {
        let old = sample(30_000, 1);
        let mut new = old.clone();
        new[10_000] ^= 1;
        new[20_000] ^= 1;
        let (best, bs) = sync_optimal(&old, &new);
        assert_eq!(best.reconstructed, new);
        assert!(CANDIDATE_SIZES.contains(&bs));
        for &candidate in CANDIDATE_SIZES {
            let out = sync(&old, &new, candidate);
            assert!(best.stats.total_bytes() <= out.stats.total_bytes());
        }
    }

    #[test]
    fn few_changes_prefer_large_blocks() {
        // One tiny change in a big file: large blocks amortize signatures.
        let old = sample(200_000, 2);
        let mut new = old.clone();
        new[100_000] ^= 0xFF;
        let (_, bs) = sync_optimal(&old, &new);
        assert!(bs >= 1024, "expected large optimal block, got {bs}");
    }

    #[test]
    fn dispersed_changes_prefer_small_blocks() {
        // A change every ~600 bytes: big blocks all get dirtied.
        let old = sample(60_000, 3);
        let mut new = old.clone();
        for i in (300..60_000).step_by(600) {
            new[i] ^= 0xFF;
        }
        let (_, bs) = sync_optimal(&old, &new);
        assert!(bs <= 512, "expected small optimal block, got {bs}");
    }
}
