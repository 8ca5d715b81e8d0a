//! Gzip-like stream compression (LZ77 + dynamic canonical Huffman).
//!
//! Used wherever the paper compresses protocol traffic "using an algorithm
//! similar to gzip": rsync's literal/token stream, msync's final delta, and
//! the whole-collection baselines in Table 6.2.
//!
//! Wire format (bit-packed, LSB-first):
//!
//! ```text
//! varint original_len
//! 1 bit  method (0 = stored, 1 = compressed)
//! stored:     original_len raw bytes (byte-aligned for simplicity? no —
//!             written as 8-bit groups in the bit stream)
//! compressed: litlen code lengths, dist code lengths, token stream, EOB
//! ```

use crate::huffman::{build_lengths, HuffmanCode, HuffmanDecoder};
use crate::lz77::{self, Token, MIN_MATCH};
use msync_hash::{BitReader, BitWriter};

/// Errors from [`decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LzError {
    /// Input ended early or contained an invalid code.
    Corrupt,
}

impl std::fmt::Display for LzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed stream")
    }
}

impl std::error::Error for LzError {}

/// Gamma-style binning of a value `v ≥ 1`: bin = ⌊log₂ v⌋, with `bin`
/// extra bits holding `v − 2^bin`. Works for arbitrary 64-bit magnitudes,
/// unlike deflate's fixed tables, which matters for the delta coder's
/// file-absolute positions.
#[inline]
pub fn gamma_bin(v: u64) -> (u32, u32, u64) {
    debug_assert!(v >= 1);
    let bin = 63 - v.leading_zeros();
    (bin, bin, v - (1u64 << bin))
}

/// Number of gamma bins needed for values up to 2^48.
pub const GAMMA_BINS: usize = 48;

/// Symbol alphabet for the literal/length stream:
/// `0..=255` literal bytes, `256` end-of-block, `257 + bin` match-length
/// bins (length encoded as `len − MIN_MATCH + 1 ≥ 1`).
const EOB: usize = 256;
const LEN_SYM_BASE: usize = 257;
const LITLEN_SYMS: usize = LEN_SYM_BASE + GAMMA_BINS;

/// Window for self-matches. 64 KiB balances match reach against distance
/// cost for our file sizes.
const MAX_DIST: usize = 1 << 16;
const MAX_CHAIN: u32 = 128;

/// Serialize a code-length table: trailing zeros trimmed, 4 bits per
/// entry, and interior zero runs run-length coded (a 0 nibble is followed
/// by a varint holding `run − 1`). Sparse alphabets — e.g. a delta stream
/// whose literals cluster in ASCII — cost a handful of bytes instead of
/// half a nibble per unused symbol.
pub fn write_table(w: &mut BitWriter, lengths: &[u8]) {
    let n = lengths.iter().rposition(|&l| l > 0).map_or(0, |p| p + 1);
    w.write_varint(n as u64);
    let mut i = 0;
    while i < n {
        let l = lengths[i];
        w.write_bits(l as u64, 4);
        if l == 0 {
            let mut run = 1usize;
            while i + run < n && lengths[i + run] == 0 {
                run += 1;
            }
            w.write_varint((run - 1) as u64);
            i += run;
        } else {
            i += 1;
        }
    }
}

/// Deserialize a table written by [`write_table`] into `total` slots.
pub fn read_table(r: &mut BitReader<'_>, total: usize) -> Result<Vec<u8>, LzError> {
    let n = r.read_varint().map_err(|_| LzError::Corrupt)? as usize;
    if n > total {
        return Err(LzError::Corrupt);
    }
    let mut lengths = vec![0u8; total];
    let mut i = 0;
    while i < n {
        let l = r.read_bits(4).map_err(|_| LzError::Corrupt)? as u8;
        if l == 0 {
            let run = r.read_varint().map_err(|_| LzError::Corrupt)? as usize + 1;
            if i + run > n {
                return Err(LzError::Corrupt);
            }
            i += run;
        } else {
            lengths[i] = l;
            i += 1;
        }
    }
    Ok(lengths)
}

/// Compress `input`. Falls back to a stored block when compression does
/// not help (incompressible or tiny inputs).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = lz77::parse(input, MAX_DIST, MAX_CHAIN);

    // Gather frequencies.
    let mut litlen_freq = vec![0u64; LITLEN_SYMS];
    let mut dist_freq = vec![0u64; GAMMA_BINS];
    for t in &tokens {
        match *t {
            Token::Literal(b) => litlen_freq[b as usize] += 1,
            Token::Match { dist, len } => {
                let (bin, _, _) = gamma_bin((len as u64) - MIN_MATCH as u64 + 1);
                litlen_freq[LEN_SYM_BASE + bin as usize] += 1;
                let (dbin, _, _) = gamma_bin(dist as u64);
                dist_freq[dbin as usize] += 1;
            }
        }
    }
    litlen_freq[EOB] += 1;

    let litlen_lengths = build_lengths(&litlen_freq);
    let dist_lengths = build_lengths(&dist_freq);
    let litlen = HuffmanCode::from_lengths(&litlen_lengths).expect("built lengths are valid");
    let dist_code = HuffmanCode::from_lengths(&dist_lengths).expect("built lengths are valid");

    let mut w = BitWriter::new();
    w.write_varint(input.len() as u64);
    w.write_bit(true); // compressed
    write_table(&mut w, &litlen_lengths);
    write_table(&mut w, &dist_lengths);
    for t in &tokens {
        match *t {
            Token::Literal(b) => litlen.encode(&mut w, b as usize),
            Token::Match { dist, len } => {
                let (bin, extra_bits, extra) = gamma_bin((len as u64) - MIN_MATCH as u64 + 1);
                litlen.encode(&mut w, LEN_SYM_BASE + bin as usize);
                w.write_bits(extra, extra_bits);
                let (dbin, dextra_bits, dextra) = gamma_bin(dist as u64);
                dist_code.encode(&mut w, dbin as usize);
                w.write_bits(dextra, dextra_bits);
            }
        }
    }
    litlen.encode(&mut w, EOB);
    let compressed = w.into_bytes();

    if compressed.len() >= input.len() + stored_overhead(input.len()) {
        let mut w = BitWriter::new();
        w.write_varint(input.len() as u64);
        w.write_bit(false); // stored
        w.write_bytes(input);
        w.into_bytes()
    } else {
        compressed
    }
}

fn stored_overhead(len: usize) -> usize {
    // varint(len) + method bit, rounded up.
    1 + (64 - (len as u64 | 1).leading_zeros() as usize) / 7
}

/// The decompressed length a [`compress`] stream's header announces,
/// read without decoding the stream. A receiver that knows the length
/// to expect compares the two before [`decompress`] may allocate.
pub fn announced_len(input: &[u8]) -> Result<u64, LzError> {
    BitReader::new(input).read_varint().map_err(|_| LzError::Corrupt)
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, LzError> {
    let mut r = BitReader::new(input);
    let orig_len = r.read_varint().map_err(|_| LzError::Corrupt)?;
    // Guard against absurd lengths from corrupt headers.
    if orig_len > crate::MAX_STREAM_LEN {
        return Err(LzError::Corrupt);
    }
    let orig_len = orig_len as usize;
    let compressed = r.read_bit().map_err(|_| LzError::Corrupt)?;
    if !compressed {
        return r.read_bytes(orig_len).map_err(|_| LzError::Corrupt);
    }
    // Allocate incrementally: `orig_len` is untrusted wire data, so a
    // corrupt header must not be able to demand gigabytes up front.
    let mut out = Vec::with_capacity(orig_len.min(1 << 20));
    let litlen_lengths = read_table(&mut r, LITLEN_SYMS)?;
    let dist_lengths = read_table(&mut r, GAMMA_BINS)?;
    let litlen = HuffmanDecoder::from_lengths(&litlen_lengths).map_err(|_| LzError::Corrupt)?;
    let dist = HuffmanDecoder::from_lengths(&dist_lengths).map_err(|_| LzError::Corrupt)?;
    loop {
        let sym = litlen.decode(&mut r).map_err(|_| LzError::Corrupt)?;
        match sym {
            0..=255 => out.push(sym as u8),
            256 => break,
            _ => {
                let bin = (sym - LEN_SYM_BASE) as u32;
                let extra = r.read_bits(bin).map_err(|_| LzError::Corrupt)?;
                let len = ((1u64 << bin) + extra) as usize + MIN_MATCH - 1;
                let dbin = dist.decode(&mut r).map_err(|_| LzError::Corrupt)? as u32;
                let dextra = r.read_bits(dbin).map_err(|_| LzError::Corrupt)?;
                let d = ((1u64 << dbin) + dextra) as usize;
                if d == 0 || d > out.len() || out.len() + len > orig_len {
                    return Err(LzError::Corrupt);
                }
                let start = out.len() - d;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
        if out.len() > orig_len {
            return Err(LzError::Corrupt);
        }
    }
    if out.len() != orig_len {
        return Err(LzError::Corrupt);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announced_len_reads_the_header_only() {
        for input in [b"".to_vec(), b"tiny".to_vec(), b"compressible text ".repeat(100)] {
            assert_eq!(announced_len(&compress(&input)), Ok(input.len() as u64));
        }
        assert_eq!(announced_len(&[]), Err(LzError::Corrupt));
    }

    #[test]
    fn roundtrip_text() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(50);
        let c = compress(&data);
        assert!(c.len() < data.len() / 3, "compressed {} of {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        let c = compress(b"");
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn roundtrip_single_byte() {
        let c = compress(b"z");
        assert_eq!(decompress(&c).unwrap(), b"z");
    }

    #[test]
    fn incompressible_uses_stored() {
        // Pseudo-random bytes: compressed form must not blow up.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + 16);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn long_run() {
        let data = vec![7u8; 100_000];
        let c = compress(&data);
        assert!(c.len() < 200, "run-length case got {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn corrupt_input_errors() {
        let data = b"hello world hello world hello world".to_vec();
        let mut c = compress(&data);
        // Truncation.
        c.truncate(c.len() / 2);
        assert!(decompress(&c).is_err());
        // Empty input.
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn gamma_bin_values() {
        assert_eq!(gamma_bin(1), (0, 0, 0));
        assert_eq!(gamma_bin(2), (1, 1, 0));
        assert_eq!(gamma_bin(3), (1, 1, 1));
        assert_eq!(gamma_bin(4), (2, 2, 0));
        assert_eq!(gamma_bin(255), (7, 7, 127));
        assert_eq!(gamma_bin(1 << 40), (40, 40, 0));
    }
}
