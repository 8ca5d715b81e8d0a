//! Bit-level serialization.
//!
//! The map-construction phase transmits hash values of arbitrary bit width
//! (continuation hashes are 3–4 bits, candidate hashes 8–30 bits), plus
//! per-candidate bitmaps. Packing these tightly is where most of the
//! paper's savings over rsync's byte-aligned wire format come from, so the
//! whole protocol serializes through these two types.

/// Accumulates values of arbitrary bit width into a byte buffer, LSB-first.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits already used in the final byte of `buf` (0 means byte-aligned).
    bit_pos: usize,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of whole bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.bit_pos == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.bit_pos
        }
    }

    /// Append the low `bits` bits of `value` (LSB first). `bits` may be 0
    /// (a no-op) and at most 64.
    pub fn write_bits(&mut self, value: u64, bits: u32) {
        debug_assert!(bits <= 64);
        let mut remaining = usize::try_from(bits.min(64)).unwrap_or(64);
        let mut value = if remaining < 64 { value & ((1u64 << remaining) - 1) } else { value };
        while remaining > 0 {
            if self.bit_pos == 0 {
                self.buf.push(0);
            }
            // Non-empty: the push above covers the byte-aligned case.
            let bit_pos = self.bit_pos;
            let Some(last) = self.buf.last_mut() else { return };
            let avail = 8 - bit_pos;
            let take = avail.min(remaining);
            // take ≤ 8, so the masked chunk always fits one byte;
            // try_from keeps that invariant checked instead of silently
            // truncating the way `as u8` would.
            let chunk = u8::try_from(value & ((1u64 << take) - 1)).unwrap_or(u8::MAX);
            *last |= chunk << bit_pos;
            self.bit_pos = (bit_pos + take) % 8;
            value >>= take;
            remaining -= take;
        }
    }

    /// Append a single boolean bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Append a variable-length unsigned integer (7 bits per byte-group,
    /// continuation bit first). Cheap for the small counts the protocol
    /// sends, still fine for 64-bit lengths.
    pub fn write_varint(&mut self, mut value: u64) {
        loop {
            let low = value & 0x7F;
            value >>= 7;
            self.write_bit(value != 0);
            self.write_bits(low, 7);
            if value == 0 {
                break;
            }
        }
    }

    /// Append whole bytes: one slice copy when the cursor is
    /// byte-aligned (every length-prefixed run the protocol writes
    /// follows a varint, so that is the usual case), the bit path
    /// otherwise. The bits written are the same either way.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        if self.bit_pos == 0 {
            self.buf.extend_from_slice(bytes);
        } else {
            for &b in bytes {
                self.write_bits(u64::from(b), 8);
            }
        }
    }

    /// Pad with zero bits to the next byte boundary and return the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes once padded to a byte boundary.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }
}

/// Reads values written by [`BitWriter`], LSB-first.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    bit_pos: usize,
}

/// Error returned when a [`BitReader`] runs out of input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitReadError;

impl std::fmt::Display for BitReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bit reader exhausted")
    }
}

impl std::error::Error for BitReadError {}

impl<'a> BitReader<'a> {
    /// Wrap a byte slice produced by [`BitWriter::into_bytes`].
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, bit_pos: 0 }
    }

    /// Bits still available (including any zero padding in the last byte).
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.bit_pos
    }

    /// Read `bits` bits (LSB first). Fails if fewer remain.
    pub fn read_bits(&mut self, bits: u32) -> Result<u64, BitReadError> {
        debug_assert!(bits <= 64);
        let nbits = usize::try_from(bits.min(64)).unwrap_or(64);
        if nbits > self.remaining_bits() {
            return Err(BitReadError);
        }
        let mut out = 0u64;
        let mut got = 0usize;
        while got < nbits {
            let byte = self.buf.get(self.bit_pos / 8).copied().unwrap_or(0);
            let offset = self.bit_pos % 8;
            let avail = 8 - offset;
            let take = avail.min(nbits - got);
            let chunk = (u64::from(byte) >> offset) & ((1u64 << take) - 1);
            out |= chunk << got;
            got += take;
            self.bit_pos += take;
        }
        Ok(out)
    }

    /// Read `len` whole bytes written by [`BitWriter::write_bytes`].
    /// `len` usually comes off the wire, so it is checked against the
    /// input that remains *before* anything is allocated.
    pub fn read_bytes(&mut self, len: usize) -> Result<Vec<u8>, BitReadError> {
        if len.checked_mul(8).is_none_or(|bits| bits > self.remaining_bits()) {
            return Err(BitReadError);
        }
        if self.bit_pos % 8 == 0 {
            let start = self.bit_pos / 8;
            let run = self.buf.get(start..start + len).ok_or(BitReadError)?;
            self.bit_pos += len * 8;
            return Ok(run.to_vec());
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(u8::try_from(self.read_bits(8)?).map_err(|_| BitReadError)?);
        }
        Ok(out)
    }

    /// Skip `len` whole bytes, as [`Self::read_bytes`] would consume
    /// them, without copying them.
    pub fn skip_bytes(&mut self, len: usize) -> Result<(), BitReadError> {
        match len.checked_mul(8) {
            Some(bits) if bits <= self.remaining_bits() => {
                self.bit_pos += bits;
                Ok(())
            }
            _ => Err(BitReadError),
        }
    }

    /// Read one boolean bit.
    pub fn read_bit(&mut self) -> Result<bool, BitReadError> {
        Ok(self.read_bits(1)? != 0)
    }

    /// Read a varint written by [`BitWriter::write_varint`].
    pub fn read_varint(&mut self) -> Result<u64, BitReadError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let more = self.read_bit()?;
            let low = self.read_bits(7)?;
            out |= low << shift;
            if !more {
                return Ok(out);
            }
            shift += 7;
            if shift >= 64 {
                return Err(BitReadError);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEAD, 16);
        w.write_bit(true);
        w.write_bits(0x1234_5678_9ABC_DEF0, 64);
        w.write_bits(0, 0); // no-op
        w.write_bits(0x7F, 7);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(64).unwrap(), 0x1234_5678_9ABC_DEF0);
        assert_eq!(r.read_bits(7).unwrap(), 0x7F);
    }

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut w = BitWriter::new();
        for &v in &values {
            w.write_varint(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_varint().unwrap(), v);
        }
    }

    #[test]
    fn bit_len_accounting() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(3, 2);
        assert_eq!(w.bit_len(), 10);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn reader_exhaustion() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1), Err(BitReadError));
    }

    #[test]
    fn byte_runs_roundtrip_at_every_bit_offset() {
        let run: Vec<u8> = (0..=255u8).rev().collect();
        for offset in 0..8u32 {
            // `write_bytes` against the per-byte loop it replaced.
            let (mut w, mut per_byte) = (BitWriter::new(), BitWriter::new());
            w.write_bits(0x55, offset);
            w.write_bytes(&run);
            w.write_bits(0b101, 3);
            per_byte.write_bits(0x55, offset);
            for &b in &run {
                per_byte.write_bits(u64::from(b), 8);
            }
            per_byte.write_bits(0b101, 3);
            let bytes = w.into_bytes();
            assert_eq!(bytes, per_byte.into_bytes(), "offset {offset}");

            let mut r = BitReader::new(&bytes);
            assert_eq!(r.read_bits(offset).unwrap(), 0x55 & ((1 << offset) - 1));
            assert_eq!(r.read_bytes(run.len()).unwrap(), run, "offset {offset}");
            assert_eq!(r.read_bits(3).unwrap(), 0b101);
        }
    }

    #[test]
    fn over_long_byte_run_is_rejected_before_allocating() {
        for (offset, fits) in [(0u32, 4usize), (3, 3)] {
            let mut r = BitReader::new(&[0xAB; 4]);
            r.read_bits(offset).unwrap();
            // Allocating any of these first would abort the test.
            for len in [usize::MAX, usize::MAX / 8, 1 << 60, 5] {
                assert_eq!(r.read_bytes(len), Err(BitReadError), "len {len}");
            }
            // A refused read consumes nothing.
            assert_eq!(r.read_bytes(fits).unwrap().len(), fits);
        }
    }

    #[test]
    fn truncates_value_to_width() {
        let mut w = BitWriter::new();
        w.write_bits(0xFF, 4); // only low 4 bits kept
        w.write_bits(0x0, 4);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x0F]);
    }
}
