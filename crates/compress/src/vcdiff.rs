//! A vcdiff-like byte-aligned delta format (Korn–Vo, RFC 3284 family).
//!
//! The paper compares against the `vcdiff` tool as a second delta
//! baseline. This module implements the same instruction family — ADD
//! (literal bytes), COPY (from an address space of reference followed by
//! target-so-far), RUN (repeated byte) — with byte-aligned LEB128 coding
//! and no entropy stage, which is why it trails the Huffman-backed
//! [`crate::delta`] coder, just as vcdiff trails zdelta in the paper.

use crate::lz77::{HashChains, MIN_MATCH};

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcdiffError {
    /// Stream truncated or internally inconsistent.
    Corrupt,
}

impl std::fmt::Display for VcdiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt vcdiff stream")
    }
}

impl std::error::Error for VcdiffError {}

const OP_ADD: u8 = 0;
const OP_COPY: u8 = 1;
const OP_RUN: u8 = 2;

fn write_leb(out: &mut Vec<u8>, mut v: u64) {
    loop {
        // Masked to 7 bits, so the byte conversion cannot lose data.
        let byte = u8::try_from(v & 0x7F).unwrap_or(0x7F);
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn read_leb(input: &[u8], pos: &mut usize) -> Result<u64, VcdiffError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(VcdiffError::Corrupt)?;
        *pos += 1;
        out |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift >= 64 {
            return Err(VcdiffError::Corrupt);
        }
    }
}

/// Instruction byte: 2-bit type in the high bits, 6-bit size in the low
/// bits; size 0 means an LEB128 size follows.
fn write_instr(out: &mut Vec<u8>, op: u8, size: u64) {
    if (1..=63).contains(&size) {
        // In-range check above guarantees size fits the 6-bit field.
        out.push((op << 6) | u8::try_from(size).unwrap_or(0));
    } else {
        out.push(op << 6);
        write_leb(out, size);
    }
}

/// Encode `target` relative to `reference`.
pub fn encode(reference: &[u8], target: &[u8]) -> Vec<u8> {
    let ref_chains = HashChains::new_full(reference);
    let mut self_chains = HashChains::new(target);
    let mut out = Vec::new();
    write_leb(&mut out, target.len() as u64);

    let mut pos = 0usize;
    let mut lit_start = 0usize;
    let flush_lits = |out: &mut Vec<u8>, from: usize, to: usize| {
        if to > from {
            write_instr(out, OP_ADD, (to - from) as u64);
            out.extend_from_slice(&target[from..to]);
        }
    };
    while pos < target.len() {
        // RUN detection: 4+ identical bytes.
        let b = target[pos];
        let mut run = 1;
        while pos + run < target.len() && target[pos + run] == b && run < (1 << 24) {
            run += 1;
        }
        self_chains.index_to(pos);
        let ref_m = ref_chains.longest_match(target, pos, reference.len(), 128);
        let self_m = self_chains.longest_match(target, pos, pos, 128);
        let copy = match (ref_m, self_m) {
            (Some((rp, rl)), Some((_, sl))) if rl >= sl => Some((rp as u64, rl)),
            (_, Some((sp, sl))) => Some((reference.len() as u64 + sp as u64, sl)),
            (Some((rp, rl)), None) => Some((rp as u64, rl)),
            (None, None) => None,
        };
        let copy_len = copy.map_or(0, |(_, l)| l);
        if run >= MIN_MATCH && run >= copy_len {
            flush_lits(&mut out, lit_start, pos);
            write_instr(&mut out, OP_RUN, run as u64);
            out.push(b);
            pos += run;
            lit_start = pos;
        } else if let Some((addr, len)) = copy.filter(|&(_, l)| l >= MIN_MATCH) {
            flush_lits(&mut out, lit_start, pos);
            write_instr(&mut out, OP_COPY, len as u64);
            write_leb(&mut out, addr);
            pos += len;
            lit_start = pos;
        } else {
            pos += 1;
        }
    }
    flush_lits(&mut out, lit_start, target.len());
    out
}

/// Decode a delta produced by [`encode`] against the same `reference`.
pub fn decode(reference: &[u8], delta: &[u8]) -> Result<Vec<u8>, VcdiffError> {
    let mut pos = 0usize;
    let target_len_raw = read_leb(delta, &mut pos)?;
    if target_len_raw > crate::MAX_STREAM_LEN {
        return Err(VcdiffError::Corrupt);
    }
    let target_len = usize::try_from(target_len_raw).map_err(|_| VcdiffError::Corrupt)?;
    // Allocate incrementally: `orig_len` is untrusted wire data, so a
    // corrupt header must not be able to demand gigabytes up front.
    let mut out = Vec::with_capacity(target_len.min(1 << 20));
    while out.len() < target_len {
        let instr = *delta.get(pos).ok_or(VcdiffError::Corrupt)?;
        pos += 1;
        let op = instr >> 6;
        let size = if instr & 0x3F != 0 {
            usize::from(instr & 0x3F)
        } else {
            usize::try_from(read_leb(delta, &mut pos)?).map_err(|_| VcdiffError::Corrupt)?
        };
        if out.len().checked_add(size).is_none_or(|end| end > target_len) {
            return Err(VcdiffError::Corrupt);
        }
        match op {
            OP_ADD => {
                let end = pos.checked_add(size).ok_or(VcdiffError::Corrupt)?;
                if end > delta.len() {
                    return Err(VcdiffError::Corrupt);
                }
                out.extend_from_slice(&delta[pos..end]);
                pos = end;
            }
            OP_RUN => {
                let byte = *delta.get(pos).ok_or(VcdiffError::Corrupt)?;
                pos += 1;
                out.resize(out.len() + size, byte);
            }
            OP_COPY => {
                let addr = usize::try_from(read_leb(delta, &mut pos)?)
                    .map_err(|_| VcdiffError::Corrupt)?;
                if addr < reference.len() {
                    // Copy from reference; may not cross into target space.
                    let end = addr.checked_add(size).ok_or(VcdiffError::Corrupt)?;
                    if end > reference.len() {
                        return Err(VcdiffError::Corrupt);
                    }
                    out.extend_from_slice(&reference[addr..end]);
                } else {
                    let taddr = addr - reference.len();
                    if taddr >= out.len() {
                        return Err(VcdiffError::Corrupt);
                    }
                    for i in 0..size {
                        let b = out[taddr + i];
                        out.push(b);
                    }
                }
            }
            _ => return Err(VcdiffError::Corrupt),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_similar() {
        let reference = b"line one\nline two\nline three\nline four\n".repeat(25);
        let mut target = reference.clone();
        target.extend_from_slice(b"line five appended\n");
        let d = encode(&reference, &target);
        assert_eq!(decode(&reference, &d).unwrap(), target);
        assert!(d.len() < 80, "vcdiff delta is {} bytes", d.len());
    }

    #[test]
    fn roundtrip_run_heavy() {
        let reference = b"".to_vec();
        let mut target = vec![0u8; 5000];
        target.extend_from_slice(b"tail");
        let d = encode(&reference, &target);
        assert_eq!(decode(&reference, &d).unwrap(), target);
        assert!(d.len() < 32);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decode(b"", &encode(b"", b"")).unwrap(), b"");
        assert_eq!(decode(b"ref", &encode(b"ref", b"")).unwrap(), b"");
    }

    #[test]
    fn roundtrip_self_copy() {
        // Target repeats its own prefix, absent from the reference.
        let reference = b"completely different".to_vec();
        let block = b"NEW-CONTENT-BLOCK-0123456789";
        let mut target = Vec::new();
        for _ in 0..20 {
            target.extend_from_slice(block);
        }
        let d = encode(&reference, &target);
        assert_eq!(decode(&reference, &d).unwrap(), target);
        assert!(d.len() < target.len() / 3);
    }

    #[test]
    fn corrupt_errors() {
        let reference = b"reference bytes".repeat(5);
        let target = b"reference bytes!".repeat(5);
        let d = encode(&reference, &target);
        for cut in [0, 1, d.len() / 2] {
            let out = decode(&reference, &d[..cut]);
            if let Ok(v) = out {
                assert_ne!(v, target);
            }
        }
    }

    #[test]
    fn leb_roundtrip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 63, 64, 127, 128, 1 << 20, u64::MAX];
        for &v in &vals {
            write_leb(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_leb(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }
}
