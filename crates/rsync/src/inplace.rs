//! In-place reconstruction (Rasch & Burns, USENIX '03 — the paper's
//! related work \[40\]: "a version of the rsync algorithm that updates
//! files in-place without using additional temporary space").
//!
//! Ordinary reconstruction writes a second copy of the file; on the
//! mobile/wireless devices the in-place variant targets, there is no
//! room for two copies. The token stream instead *overwrites* the old
//! file's buffer. That creates read-after-write hazards: a block
//! reference reads old bytes that an earlier write may have clobbered.
//!
//! The classic solution, implemented here:
//!
//! 1. build the dependency graph — output command `i` depends on output
//!    command `j` if `j`'s output range overlaps the old-file range `i`
//!    still needs to read;
//! 2. emit commands in topological order, so every read happens before
//!    the write that would clobber it;
//! 3. break dependency *cycles* by materializing one block's source
//!    bytes out of the buffer (the only extra space used: one block per
//!    cycle, held until the final write pass).
//!
//! Literal bytes carry no read dependency and are written last-minute.

use crate::matcher::Token;
use crate::reconstruct::ReconstructError;
use crate::signature::Signatures;

/// One output command: write `len` bytes at target offset `dst`,
/// sourced either from the old file at `src` or from literal bytes.
#[derive(Debug, Clone)]
enum Command {
    CopyOld { dst: usize, src: usize, len: usize },
    Literal { dst: usize, bytes: Vec<u8> },
}

/// Statistics of one in-place run, for tests and curiosity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InplaceStats {
    /// Copy commands executed.
    pub copies: usize,
    /// Dependency cycles broken by materializing a block.
    pub cycles_broken: usize,
    /// Peak scratch bytes used to break cycles.
    pub peak_scratch: usize,
}

/// Apply `tokens` to `buf` **in place**: on entry `buf` holds the old
/// file, on exit the new one. `sigs` supplies the old block geometry
/// (the client computed it in step 1).
///
/// Extra memory is bounded by the bytes of cycle-broken blocks (one
/// block per cycle, held until the final literal pass) plus the literal
/// bytes of the stream itself.
pub fn apply_inplace(
    buf: &mut Vec<u8>,
    sigs: &Signatures,
    tokens: &[Token],
) -> Result<InplaceStats, ReconstructError> {
    // Pass 1: lay out the output and validate block references.
    let old_len = buf.len();
    let mut commands = Vec::with_capacity(tokens.len());
    let mut dst = 0usize;
    for t in tokens {
        match t {
            Token::Literal(bytes) => {
                commands.push(Command::Literal { dst, bytes: bytes.clone() });
                dst += bytes.len();
            }
            Token::Block(idx) => {
                let idx = *idx as usize;
                if idx >= sigs.blocks.len() {
                    return Err(ReconstructError::BadBlockIndex);
                }
                let src = idx * sigs.block_size;
                let len = sigs.block_len(idx);
                if src + len > old_len {
                    return Err(ReconstructError::BadBlockIndex);
                }
                commands.push(Command::CopyOld { dst, src, len });
                dst += len;
            }
        }
    }
    let new_len = dst;
    buf.resize(old_len.max(new_len), 0);

    // Pass 2: order the copies. A copy may run once no still-pending
    // copy needs to read from its destination. The sweep below is
    // quadratic in the number of copy commands, which is tens per file
    // for realistic token streams.
    let mut pending: Vec<usize> =
        (0..commands.len()).filter(|&i| matches!(commands[i], Command::CopyOld { .. })).collect();
    let mut done = vec![false; commands.len()];
    let mut stats = InplaceStats::default();

    // Iteratively execute copies whose source range is not overwritten
    // by any still-pending copy's destination; if none qualifies, break
    // a cycle by materializing one command's source.
    let mut scratch: Vec<u8> = Vec::new();
    while !pending.is_empty() {
        let mut progressed = false;
        let mut next_pending = Vec::with_capacity(pending.len());
        for &i in &pending {
            let (dst_i, src_i, len_i) = match commands[i] {
                Command::CopyOld { dst, src, len } => (dst, src, len),
                Command::Literal { .. } => unreachable!("pending holds copies only"),
            };
            // Executing i writes [dst_i, dst_i+len_i); it must wait
            // while any other pending copy still needs to *read* from
            // that range (i overwriting its own source is fine —
            // copy_within has memmove semantics).
            let hazard = pending.iter().any(|&j| {
                if j == i || done[j] {
                    return false;
                }
                match commands[j] {
                    Command::CopyOld { src: src_j, len: len_j, .. } => {
                        ranges_overlap(dst_i, len_i, src_j, len_j)
                    }
                    Command::Literal { .. } => false,
                }
            });
            if hazard {
                next_pending.push(i);
            } else {
                buf.copy_within(src_i..src_i + len_i, dst_i);
                done[i] = true;
                stats.copies += 1;
                progressed = true;
            }
        }
        if !progressed && !next_pending.is_empty() {
            // Cycle: every pending copy's source is someone's target.
            // Materialize the first one into scratch and retire it.
            let i = next_pending.remove(0);
            let (dst_i, src_i, len_i) = match commands[i] {
                Command::CopyOld { dst, src, len } => (dst, src, len),
                Command::Literal { .. } => unreachable!("pending holds copies only"),
            };
            scratch.clear();
            scratch.extend_from_slice(&buf[src_i..src_i + len_i]);
            stats.peak_scratch = stats.peak_scratch.max(scratch.len());
            stats.cycles_broken += 1;
            stats.copies += 1;
            // Rewrite the command as a literal from scratch: it no
            // longer reads the buffer, so it stops blocking the copies
            // that write over its old source — but its own *write* still
            // happens in pass 3, after every remaining copy has read.
            commands[i] = Command::Literal { dst: dst_i, bytes: scratch.clone() };
        }
        pending = next_pending;
    }

    // Pass 3: literals (no read dependencies; writing them last means
    // they can never clobber a copy's source before it runs — any copy
    // reading a region a literal writes was ordered above only against
    // copies, so literals must come after *all* copies... which is safe
    // because copies never read literal output: they read old bytes).
    for c in &commands {
        if let Command::Literal { dst, bytes } = c {
            buf[*dst..*dst + bytes.len()].copy_from_slice(bytes);
        }
    }

    buf.truncate(new_len);
    Ok(stats)
}

#[inline]
fn ranges_overlap(a: usize, a_len: usize, b: usize, b_len: usize) -> bool {
    a < b + b_len && b < a + a_len
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_tokens;
    use crate::signature::Signatures;

    fn run_inplace(old: &[u8], new: &[u8], block: usize) -> (Vec<u8>, InplaceStats) {
        let sigs = Signatures::compute(old, block);
        let tokens = match_tokens(new, &sigs);
        let mut buf = old.to_vec();
        let stats = apply_inplace(&mut buf, &sigs, &tokens).unwrap();
        (buf, stats)
    }

    fn blob(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn identity_update() {
        let data = blob(5_000, 1);
        let (out, stats) = run_inplace(&data, &data, 512);
        assert_eq!(out, data);
        assert_eq!(stats.cycles_broken, 0);
    }

    #[test]
    fn shift_right_forces_ordering() {
        // Insert at front: every block moves right; block k's target
        // overlaps block k+1's source, so copies must run back-to-front.
        let old = blob(8_192, 2);
        let mut new = b"PREFIX--".to_vec();
        new.extend_from_slice(&old);
        let (out, _) = run_inplace(&old, &new, 512);
        assert_eq!(out, new);
    }

    #[test]
    fn shift_left_forces_opposite_ordering() {
        let old = blob(8_192, 3);
        let new = old[512..].to_vec(); // delete the first block
        let (out, _) = run_inplace(&old, &new, 512);
        assert_eq!(out, new);
    }

    #[test]
    fn swap_creates_cycle() {
        // Swapping two halves makes each half's destination the other's
        // source — a 2-cycle the scratch buffer must break.
        let a = blob(2_048, 4);
        let b = blob(2_048, 9); // distinct after the generator's `| 1`
        let old = [a.clone(), b.clone()].concat();
        let new = [b, a].concat();
        let (out, stats) = run_inplace(&old, &new, 1_024);
        assert_eq!(out, new);
        assert!(stats.cycles_broken > 0, "swap must require cycle breaking");
        assert!(stats.peak_scratch <= 1_024);
    }

    #[test]
    fn rotation_long_cycle() {
        // Rotate blocks by one: a single long dependency cycle.
        let old = blob(8 * 512, 6);
        let mut new = old[512..].to_vec();
        new.extend_from_slice(&old[..512]);
        let (out, stats) = run_inplace(&old, &new, 512);
        assert_eq!(out, new);
        assert!(stats.peak_scratch <= 512);
    }

    #[test]
    fn grow_and_shrink() {
        let old = blob(10_000, 7);
        let mut grown = old.clone();
        grown.splice(5_000..5_000, blob(3_000, 8));
        let (out, _) = run_inplace(&old, &grown, 700);
        assert_eq!(out, grown);

        let mut shrunk = old.clone();
        shrunk.drain(2_000..6_000);
        let (out, _) = run_inplace(&old, &shrunk, 700);
        assert_eq!(out, shrunk);
    }

    #[test]
    fn completely_new_content() {
        let old = blob(4_000, 9);
        let new = blob(4_000, 10);
        let (out, stats) = run_inplace(&old, &new, 512);
        assert_eq!(out, new);
        assert_eq!(stats.copies, 0);
    }

    #[test]
    fn bad_index_rejected() {
        let old = blob(1_000, 11);
        let sigs = Signatures::compute(&old, 500);
        let mut buf = old.clone();
        let err = apply_inplace(&mut buf, &sigs, &[Token::Block(42)]);
        assert_eq!(err, Err(ReconstructError::BadBlockIndex));
    }

    #[test]
    fn matches_out_of_place_on_random_edits() {
        let old = blob(20_000, 12);
        for seed in 13..18u64 {
            let mut new = old.clone();
            let at = (seed as usize * 2_711) % 15_000;
            new.splice(at..at + 500, blob(900, seed));
            let sigs = Signatures::compute(&old, 700);
            let tokens = match_tokens(&new, &sigs);
            let expected = crate::reconstruct::apply(&old, &sigs, &tokens).unwrap();
            let mut buf = old.clone();
            apply_inplace(&mut buf, &sigs, &tokens).unwrap();
            assert_eq!(buf, expected);
            assert_eq!(buf, new);
        }
    }
}
