//! Reference-based delta compression (zdelta-like).
//!
//! Encodes a *target* file relative to a *reference* file available to
//! both sides, using LZ77 where the match window covers the whole
//! reference as well as the already-emitted target. This plays two roles
//! in the reproduction:
//!
//! * it is the **delta phase** of the msync protocol (paper §5.1: "good
//!   delta compression tools for the second phase are already available";
//!   they use zdelta); and
//! * run with both full files local, it is the **lower-bound comparator**
//!   ("the best delta compressor ... provides a reasonable lower bound in
//!   practice").
//!
//! Like zdelta, reference addresses are encoded as movements of a cursor
//! that tracks sequential locality, and everything is entropy-coded with
//! canonical Huffman tables.
//!
//! Most deltas in a web collection are of small files, so the fixed cost
//! of one call is kept independent of the table sizes: the two hash-chain
//! indexes an encode builds take their 256 KiB head tables from the
//! thread's pool (see [`crate::lz77`]; reset to all-NIL before reuse, so
//! the matches and the output bytes are those of fresh tables), and the
//! fixed-mode Huffman codes and their decoders are built once per
//! process.

use crate::huffman::{build_lengths, HuffmanCode, HuffmanDecoder};
use crate::lz::{gamma_bin, GAMMA_BINS};
use crate::lz77::{HashChains, MIN_MATCH};
use msync_hash::{BitReader, BitWriter};
use std::sync::OnceLock;

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// Stream truncated or internally inconsistent.
    Corrupt,
    /// The reference supplied to `decode` does not match the one used by
    /// `encode` (detected via out-of-range copies; byte-level mismatches
    /// are caught by the caller's fingerprint check).
    ReferenceMismatch,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Corrupt => write!(f, "corrupt delta stream"),
            Self::ReferenceMismatch => write!(f, "delta does not fit the reference"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Op alphabet: literals, EOB, then length bins for the two copy sources.
const EOB: usize = 256;
const REF_LEN_BASE: usize = 257;
const SELF_LEN_BASE: usize = REF_LEN_BASE + GAMMA_BINS;
const OP_SYMS: usize = SELF_LEN_BASE + GAMMA_BINS;

const MAX_CHAIN: u32 = 256;

#[derive(Debug, Clone, Copy)]
enum Op {
    Literal(u8),
    CopyRef { pos: u64, len: u64 },
    CopySelf { dist: u64, len: u64 },
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Produce the op stream for `target` given `reference`.
fn parse_ops(reference: &[u8], target: &[u8]) -> Vec<Op> {
    let ref_chains = HashChains::new_full(reference);
    let mut self_chains = HashChains::new(target);
    let mut ops = Vec::with_capacity(target.len() / 8 + 8);
    let mut pos = 0usize;
    while pos < target.len() {
        self_chains.index_to(pos);
        let ref_m = ref_chains.longest_match(target, pos, reference.len(), MAX_CHAIN);
        let self_m = self_chains.longest_match(target, pos, pos, MAX_CHAIN);
        let best = match (ref_m, self_m) {
            (Some((rp, rl)), Some((sp, sl))) => {
                if sl >= rl {
                    // Prefer self copies on ties: distances are usually
                    // cheaper than absolute reference positions.
                    Some(Op::CopySelf { dist: (pos - sp) as u64, len: sl as u64 })
                } else {
                    Some(Op::CopyRef { pos: rp as u64, len: rl as u64 })
                }
            }
            (Some((rp, rl)), None) => Some(Op::CopyRef { pos: rp as u64, len: rl as u64 }),
            (None, Some((sp, sl))) => {
                Some(Op::CopySelf { dist: (pos - sp) as u64, len: sl as u64 })
            }
            (None, None) => None,
        };
        match best {
            Some(op) => {
                let len = match op {
                    Op::CopyRef { len, .. } | Op::CopySelf { len, .. } => len as usize,
                    Op::Literal(_) => unreachable!(),
                };
                ops.push(op);
                pos += len;
            }
            None => {
                ops.push(Op::Literal(target[pos]));
                pos += 1;
            }
        }
    }
    ops
}

/// Fixed (protocol-constant) code tables for small deltas, where the
/// ~100–150 bytes of dynamic table headers would dominate. Both sides
/// derive them from the same synthetic frequency profile, so nothing is
/// transmitted; the encoder emits whichever mode is smaller, signaled by
/// one bit.
fn fixed_codes() -> &'static (HuffmanCode, HuffmanCode) {
    static CODES: OnceLock<(HuffmanCode, HuffmanCode)> = OnceLock::new();
    CODES.get_or_init(|| {
        let mut op_freq = vec![1u64; OP_SYMS];
        for (b, f) in op_freq.iter_mut().enumerate().take(256) {
            // ASCII-ish literal skew.
            *f = if (32..127).contains(&b) { 24 } else { 6 };
        }
        op_freq[EOB] = 64;
        for bin in 0..GAMMA_BINS {
            op_freq[REF_LEN_BASE + bin] = (512 >> bin.min(9)).max(1);
            op_freq[SELF_LEN_BASE + bin] = (256 >> bin.min(8)).max(1);
        }
        let mut addr_freq = vec![1u64; GAMMA_BINS];
        for (bin, f) in addr_freq.iter_mut().enumerate() {
            *f = (1024 >> bin.min(10)).max(1);
        }
        let op = HuffmanCode::from_lengths(&build_lengths(&op_freq)).expect("static profile valid");
        let addr =
            HuffmanCode::from_lengths(&build_lengths(&addr_freq)).expect("static profile valid");
        (op, addr)
    })
}

/// Decoders for [`fixed_codes`], built once: each is a `2^max_len`-entry
/// table, so rebuilding them per delta would cost more than decoding a
/// small one.
fn fixed_decoders() -> &'static (HuffmanDecoder, HuffmanDecoder) {
    static DECODERS: OnceLock<(HuffmanDecoder, HuffmanDecoder)> = OnceLock::new();
    DECODERS.get_or_init(|| {
        let (op, addr) = fixed_codes();
        (op.decoder(), addr.decoder())
    })
}

/// Serialize `ops` under the given codes; `with_tables` also writes the
/// code-length tables (dynamic mode).
fn write_stream(
    target_len: usize,
    ops: &[Op],
    op_code: &HuffmanCode,
    addr_code: &HuffmanCode,
    fixed_mode: bool,
) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_varint(target_len as u64);
    w.write_bit(fixed_mode);
    if !fixed_mode {
        super::lz::write_table(&mut w, op_code.lengths());
        super::lz::write_table(&mut w, addr_code.lengths());
    }
    let mut cursor: i64 = 0;
    for op in ops {
        match *op {
            Op::Literal(b) => op_code.encode(&mut w, b as usize),
            Op::CopyRef { pos, len } => {
                let (bin, ebits, extra) = gamma_bin(len - MIN_MATCH as u64 + 1);
                op_code.encode(&mut w, REF_LEN_BASE + bin as usize);
                w.write_bits(extra, ebits);
                let offset = zigzag(pos as i64 - cursor) + 1;
                let (abin, aebits, aextra) = gamma_bin(offset);
                addr_code.encode(&mut w, abin as usize);
                w.write_bits(aextra, aebits);
                cursor = (pos + len) as i64;
            }
            Op::CopySelf { dist, len } => {
                let (bin, ebits, extra) = gamma_bin(len - MIN_MATCH as u64 + 1);
                op_code.encode(&mut w, SELF_LEN_BASE + bin as usize);
                w.write_bits(extra, ebits);
                let (abin, aebits, aextra) = gamma_bin(dist);
                addr_code.encode(&mut w, abin as usize);
                w.write_bits(aextra, aebits);
            }
        }
    }
    op_code.encode(&mut w, EOB);
    w.into_bytes()
}

/// Encode `target` relative to `reference`.
pub fn encode(reference: &[u8], target: &[u8]) -> Vec<u8> {
    let ops = parse_ops(reference, target);

    let mut op_freq = vec![0u64; OP_SYMS];
    let mut addr_freq = vec![0u64; GAMMA_BINS];
    let mut cursor: i64 = 0;
    for op in &ops {
        match *op {
            Op::Literal(b) => op_freq[b as usize] += 1,
            Op::CopyRef { pos, len } => {
                let (bin, _, _) = gamma_bin(len - MIN_MATCH as u64 + 1);
                op_freq[REF_LEN_BASE + bin as usize] += 1;
                let offset = zigzag(pos as i64 - cursor) + 1;
                let (abin, _, _) = gamma_bin(offset);
                addr_freq[abin as usize] += 1;
                cursor = (pos + len) as i64;
            }
            Op::CopySelf { dist, len } => {
                let (bin, _, _) = gamma_bin(len - MIN_MATCH as u64 + 1);
                op_freq[SELF_LEN_BASE + bin as usize] += 1;
                let (abin, _, _) = gamma_bin(dist);
                addr_freq[abin as usize] += 1;
            }
        }
    }
    op_freq[EOB] += 1;

    let op_lengths = build_lengths(&op_freq);
    let addr_lengths = build_lengths(&addr_freq);
    let op_code = HuffmanCode::from_lengths(&op_lengths).expect("valid built lengths");
    // Addr table may be empty if there are no copies at all.
    let addr_code = HuffmanCode::from_lengths(&addr_lengths).expect("valid built lengths");

    let dynamic = write_stream(target.len(), &ops, &op_code, &addr_code, false);
    // Fixed tables only ever win when the dynamic table header (~100-150
    // bytes) is a meaningful fraction of the stream, so skip the second
    // serialization for large op counts.
    if ops.len() <= 2_048 {
        let (fop, faddr) = fixed_codes();
        let fixed = write_stream(target.len(), &ops, fop, faddr, true);
        if fixed.len() < dynamic.len() {
            return fixed;
        }
    }
    dynamic
}

/// The target length a delta's header announces, read without decoding
/// the delta. A receiver that knows the length to expect compares the
/// two before [`decode`] may allocate.
pub fn announced_len(delta: &[u8]) -> Result<u64, DeltaError> {
    BitReader::new(delta).read_varint().map_err(|_| DeltaError::Corrupt)
}

/// Decode a delta produced by [`encode`] against the same `reference`.
pub fn decode(reference: &[u8], delta: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let mut r = BitReader::new(delta);
    let target_len = r.read_varint().map_err(|_| DeltaError::Corrupt)?;
    if target_len > crate::MAX_STREAM_LEN {
        return Err(DeltaError::Corrupt);
    }
    let target_len = target_len as usize;
    let fixed_mode = r.read_bit().map_err(|_| DeltaError::Corrupt)?;
    let dynamic;
    let (op_dec, addr_dec) = if fixed_mode {
        fixed_decoders()
    } else {
        let op_lengths = super::lz::read_table(&mut r, OP_SYMS).map_err(|_| DeltaError::Corrupt)?;
        let addr_lengths =
            super::lz::read_table(&mut r, GAMMA_BINS).map_err(|_| DeltaError::Corrupt)?;
        dynamic = (
            HuffmanDecoder::from_lengths(&op_lengths).map_err(|_| DeltaError::Corrupt)?,
            HuffmanDecoder::from_lengths(&addr_lengths).map_err(|_| DeltaError::Corrupt)?,
        );
        &dynamic
    };

    // Allocate incrementally: `orig_len` is untrusted wire data, so a
    // corrupt header must not be able to demand gigabytes up front.
    let mut out = Vec::with_capacity(target_len.min(1 << 20));
    let mut cursor: i64 = 0;
    loop {
        let sym = op_dec.decode(&mut r).map_err(|_| DeltaError::Corrupt)?;
        match sym {
            0..=255 => out.push(sym as u8),
            EOB => break,
            s if s < SELF_LEN_BASE => {
                // Copy from reference.
                let bin = (s - REF_LEN_BASE) as u32;
                let extra = r.read_bits(bin).map_err(|_| DeltaError::Corrupt)?;
                let len = ((1u64 << bin) + extra + MIN_MATCH as u64 - 1) as usize;
                if out.len() + len > target_len {
                    return Err(DeltaError::Corrupt);
                }
                let abin = addr_dec.decode(&mut r).map_err(|_| DeltaError::Corrupt)? as u32;
                let aextra = r.read_bits(abin).map_err(|_| DeltaError::Corrupt)?;
                let offset = unzigzag(((1u64 << abin) + aextra) - 1);
                let pos = cursor + offset;
                if pos < 0 || (pos as usize) + len > reference.len() {
                    return Err(DeltaError::ReferenceMismatch);
                }
                out.extend_from_slice(&reference[pos as usize..pos as usize + len]);
                cursor = pos + len as i64;
            }
            s => {
                // Copy from already-produced target.
                let bin = (s - SELF_LEN_BASE) as u32;
                let extra = r.read_bits(bin).map_err(|_| DeltaError::Corrupt)?;
                let len = ((1u64 << bin) + extra + MIN_MATCH as u64 - 1) as usize;
                if out.len() + len > target_len {
                    return Err(DeltaError::Corrupt);
                }
                let abin = addr_dec.decode(&mut r).map_err(|_| DeltaError::Corrupt)? as u32;
                let aextra = r.read_bits(abin).map_err(|_| DeltaError::Corrupt)?;
                let dist = ((1u64 << abin) + aextra) as usize;
                if dist == 0 || dist > out.len() {
                    return Err(DeltaError::Corrupt);
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy: the source runs into bytes this
                    // very copy produces, so it goes byte by byte.
                    for i in 0..len {
                        let b = out[start + i];
                        out.push(b);
                    }
                }
            }
        }
        if out.len() > target_len {
            return Err(DeltaError::Corrupt);
        }
    }
    if out.len() != target_len {
        return Err(DeltaError::Corrupt);
    }
    Ok(out)
}

/// Size in bytes of the delta of `target` vs `reference` — the
/// lower-bound number reported in the paper's tables.
pub fn delta_size(reference: &[u8], target: &[u8]) -> usize {
    encode(reference, target).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announced_len_reads_the_header_only() {
        let reference = b"abcdefgh".repeat(50);
        let target = b"abcdefgh-changed".repeat(30);
        assert_eq!(announced_len(&encode(&reference, &target)), Ok(target.len() as u64));
        assert_eq!(announced_len(&[]), Err(DeltaError::Corrupt));
    }

    #[test]
    fn roundtrip_similar_files() {
        let reference = b"fn main() { println!(\"hello world\"); } // comment\n".repeat(40);
        let mut target = reference.clone();
        // A small edit in the middle.
        target[500..510].copy_from_slice(b"XXXXXXXXXX");
        let d = encode(&reference, &target);
        assert_eq!(decode(&reference, &d).unwrap(), target);
        assert!(d.len() < target.len() / 10, "delta {} for target {}", d.len(), target.len());
    }

    #[test]
    fn roundtrip_unrelated_files() {
        let reference = vec![1u8; 100];
        let target: Vec<u8> = (0..1000u32).map(|i| ((i * 37) % 251) as u8).collect();
        let d = encode(&reference, &target);
        assert_eq!(decode(&reference, &d).unwrap(), target);
    }

    #[test]
    fn roundtrip_empty_cases() {
        assert_eq!(decode(b"", &encode(b"", b"")).unwrap(), b"");
        assert_eq!(decode(b"abc", &encode(b"abc", b"")).unwrap(), b"");
        assert_eq!(decode(b"", &encode(b"", b"xyz")).unwrap(), b"xyz");
    }

    #[test]
    fn identical_files_tiny_delta() {
        let reference = b"identical content that should compress to almost nothing".repeat(100);
        let d = encode(&reference, &reference);
        // The fixed-table mode keeps identity deltas to a few bytes.
        assert!(d.len() < 24, "identity delta is {} bytes", d.len());
        assert_eq!(decode(&reference, &d).unwrap(), reference);
    }

    #[test]
    fn fixed_mode_helps_small_deltas_only() {
        // Tiny delta: fixed tables beat dynamic by a wide margin.
        let reference = b"small file with a header and a body".repeat(20);
        let mut target = reference.clone();
        target.extend_from_slice(b"!tail");
        let d = encode(&reference, &target);
        assert!(d.len() < 40, "small delta is {} bytes", d.len());
        assert_eq!(decode(&reference, &d).unwrap(), target);
        // Big literal-heavy delta: dynamic tables must still engage and
        // keep the rate close to entropy (roundtrip already covered).
        let big: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        let d = encode(b"", &big);
        assert_eq!(decode(b"", &d).unwrap(), big);
    }

    #[test]
    fn insertion_in_target() {
        let reference = b"AAAA BBBB CCCC DDDD EEEE FFFF GGGG HHHH".repeat(30);
        let mut target = reference.clone();
        let insert = b"<<<< inserted paragraph with fresh content >>>>";
        let at = target.len() / 2;
        target.splice(at..at, insert.iter().copied());
        let d = encode(&reference, &target);
        assert_eq!(decode(&reference, &d).unwrap(), target);
        assert!(d.len() < insert.len() + 200);
    }

    #[test]
    fn self_copies_roundtrip_overlapping_or_not() {
        let block: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
        // Distance 2 under a long length: the copy feeds on itself.
        let mut target = b"ab".repeat(200);
        // The same 300 bytes again, 340 back: source and output disjoint.
        target.extend_from_slice(&block);
        target.extend_from_slice(&[7u8; 40]);
        target.extend_from_slice(&block);
        let d = encode(b"", &target);
        assert!(d.len() < target.len() / 2, "self-matches unused: {} B", d.len());
        assert_eq!(decode(b"", &d).unwrap(), target);
    }

    #[test]
    fn wrong_reference_detected_or_differs() {
        let reference = b"the original reference text repeated ".repeat(20);
        let target = {
            let mut t = reference.clone();
            t.extend_from_slice(b"tail");
            t
        };
        let d = encode(&reference, &target);
        let other_ref = vec![0u8; 10];
        // Either an explicit error or a wrong reconstruction; never the
        // right bytes by accident.
        if let Ok(out) = decode(&other_ref, &d) {
            assert_ne!(out, target)
        }
    }

    #[test]
    fn corrupt_delta_errors() {
        let reference = b"reference".repeat(10);
        let target = b"reference!".repeat(10);
        let mut d = encode(&reference, &target);
        d.truncate(d.len().saturating_sub(3));
        assert!(decode(&reference, &d).is_err());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 2, -2, i32::MAX as i64, i32::MIN as i64, 12345, -98765] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
