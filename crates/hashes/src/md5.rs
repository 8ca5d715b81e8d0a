//! MD5 (RFC 1321).
//!
//! The paper uses MD5 for verification hashes ("each verification hash,
//! based on MD5, can be for a single candidate or a group of candidates"),
//! and msync keeps it there: the verification group hashes, the group
//! check over the roster's settled fingerprints and the server's cached
//! group hashes. The strong 16-byte per-file hash is SipHash-2-4-128
//! instead ([`crate::fingerprint`]), which hashes four times as fast. As
//! with MD4, this is a checksum against random mismatch, not a security
//! primitive.

/// Per-step left-rotate amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Sine-derived constants `K[i] = floor(2^32 * |sin(i+1)|)`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Incremental MD5 state.
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Md5 {
    fn default() -> Self {
        Self {
            state: [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }
}

impl Md5 {
    /// Fresh state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.process(&block);
                self.buf_len = 0;
            }
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            self.process(block);
            data = rest;
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the 16-byte digest.
    pub fn finish(mut self) -> [u8; 16] {
        let bit_len = self.len.wrapping_mul(8);
        // 0x80, then zeros up to 56 bytes into a block.
        let mut pad = [0u8; 64];
        pad[0] = 0x80;
        let pad_len = if self.buf_len < 56 { 56 - self.buf_len } else { 120 - self.buf_len };
        self.update(&pad[..pad_len]);
        self.buf[56..64].copy_from_slice(&bit_len.to_le_bytes());
        let block = self.buf;
        self.process(&block);
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 16] {
        let mut s = Self::new();
        s.update(data);
        s.finish()
    }

    /// One-shot digest truncated to a `bits`-bit hash value (low bits of
    /// the first 8 digest bytes, little-endian). This is how verification
    /// hashes of configurable strength are derived (paper §6.1: "for the
    /// verification hashes, we used another MD5-based hash").
    pub fn digest_bits(data: &[u8], bits: u32) -> u64 {
        let mut s = Self::new();
        s.update(data);
        s.finish_bits(bits)
    }

    /// [`Self::finish`] truncated as [`Self::digest_bits`] truncates: a
    /// verification hash over bytes absorbed piece by piece, with no
    /// buffer to gather them in.
    pub fn finish_bits(self, bits: u32) -> u64 {
        crate::truncate_bits(crate::u64_prefix_le(&self.finish()), bits)
    }

    fn process(&mut self, block: &[u8; 64]) {
        let mut m = [0u32; 16];
        for (word, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut v = self.state;
        round(&mut v, &m, 0, |b, c, d| d ^ (b & (c ^ d)), |i| i);
        round(&mut v, &m, 1, |b, c, d| c ^ (d & (b ^ c)), |i| (5 * i + 1) % 16);
        round(&mut v, &m, 2, |b, c, d| b ^ c ^ d, |i| (3 * i + 5) % 16);
        round(&mut v, &m, 3, |b, c, d| c ^ (b | !d), |i| (7 * i) % 16);
        for (s, v) in self.state.iter_mut().zip(v) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The 16 steps of round `r` (0–3) with round function `f` and message
/// schedule `g`, four at a time so each step's variables stay in place:
/// every index, constant and rotation is known at compile time.
#[inline(always)]
fn round(
    v: &mut [u32; 4],
    m: &[u32; 16],
    r: usize,
    f: impl Fn(u32, u32, u32) -> u32,
    g: impl Fn(usize) -> usize,
) {
    let step = |a: u32, b: u32, fv: u32, i: usize| {
        b.wrapping_add(
            a.wrapping_add(fv).wrapping_add(K[i]).wrapping_add(m[g(i)]).rotate_left(S[i]),
        )
    };
    let [mut a, mut b, mut c, mut d] = *v;
    for j in 0..4 {
        let i = r * 16 + 4 * j;
        a = step(a, b, f(b, c, d), i);
        d = step(d, a, f(a, b, c), i + 1);
        c = step(c, d, f(d, a, b), i + 2);
        b = step(b, c, f(c, d, a), i + 3);
    }
    *v = [a, b, c, d];
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: [u8; 16]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc1321_vectors() {
        assert_eq!(hex(Md5::digest(b"")), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(hex(Md5::digest(b"a")), "0cc175b9c0f1b6a831c399e269772661");
        assert_eq!(hex(Md5::digest(b"abc")), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(hex(Md5::digest(b"message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
        assert_eq!(
            hex(Md5::digest(b"abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b"
        );
        assert_eq!(
            hex(Md5::digest(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")),
            "d174ab98d277d9f5a5611c2c9f419d9f"
        );
        assert_eq!(
            hex(Md5::digest(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            )),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..77_777u32).map(|i| (i % 253) as u8).collect();
        let mut s = Md5::new();
        for chunk in data.chunks(1009) {
            s.update(chunk);
        }
        assert_eq!(s.finish(), Md5::digest(&data));
    }

    #[test]
    fn padding_boundaries() {
        for len in 54..70usize {
            let data = vec![0x5Au8; len];
            assert_eq!(Md5::digest(&data), {
                let mut s = Md5::new();
                for b in &data {
                    s.update(std::slice::from_ref(b));
                }
                s.finish()
            });
        }
    }

    #[test]
    fn padding_lengths_match_reference_digests() {
        // Every way the final block can end: before, at and past the
        // 56-byte length field, at a block edge, and one block later.
        for (len, want) in [
            (55, "ef1772b6dff9a122358552954ad0df65"),
            (56, "3b0c8ac703f828b04c6c197006d17218"),
            (57, "652b906d60af96844ebd21b674f35e93"),
            (63, "b06521f39153d618550606be297466d5"),
            (64, "014842d480b571495a4a0363793f7367"),
            (65, "c743a45e0d2e6a95cb859adae0248435"),
            (119, "8a7bd0732ed6a28ce75f6dabc90e1613"),
            (120, "5f61c0ccad4cac44c75ff505e1f1e537"),
        ] {
            assert_eq!(hex(Md5::digest(&vec![b'a'; len])), want, "{len} bytes");
        }
    }

    #[test]
    fn finish_bits_over_pieces_is_digest_bits_of_their_concatenation() {
        let data: Vec<u8> = (0..5_000u32).map(|i| (i * 7 % 251) as u8).collect();
        let pieces = [&data[..13], &data[100..190], &data[1_000..1_064], &data[4_000..]];
        let mut s = Md5::new();
        for piece in pieces {
            s.update(piece);
        }
        assert_eq!(s.finish_bits(37), Md5::digest_bits(&pieces.concat(), 37));
    }

    #[test]
    fn digest_bits_truncates() {
        let v64 = Md5::digest_bits(b"hello", 64);
        for bits in [1u32, 4, 8, 16, 33, 63] {
            assert_eq!(Md5::digest_bits(b"hello", bits), v64 & ((1 << bits) - 1));
        }
    }
}
