//! SipHash-2-4 with 128-bit output (Aumasson & Bernstein, 2012).
//!
//! The whole-file fingerprint (paper §6.1: "a very strong 16-byte hash
//! value for each file") is SipHash-2-4 in its 128-bit output mode under a
//! fixed, public key. It runs about four times as fast as MD5 here: two
//! rounds of four 64-bit add-rotate-xor steps per 8-byte word against
//! MD5's 64 steps per 64-byte block, with no table or message schedule.
//!
//! With a public key this is a checksum against random mismatch, not a
//! security primitive — as MD5, whose collisions are practical, already
//! was. A peer that wants two files to share a fingerprint can make them;
//! what it gains is a file synchronized wrong on its own side.
//!
//! The 64-bit core (rounds, message words, the length byte of the last
//! block) is checked against the standard library's deprecated
//! `std::hash::SipHasher`, which is SipHash-2-4 with 64-bit output; the
//! 128-bit mode differs only in the two `0xee` tweaks and the second
//! finalization, and is pinned by the reference implementation's test
//! vectors.

/// Incremental SipHash-2-4-128 state.
#[derive(Debug, Clone)]
pub struct SipHash128 {
    v: [u64; 4],
    /// Bytes of the current partial word, little-endian.
    tail: u64,
    /// Number of valid bytes in `tail` (0..8).
    ntail: usize,
    /// Total bytes absorbed; its low byte ends up in the last block.
    len: u64,
}

impl SipHash128 {
    /// Fresh state under the 128-bit `key`, given as two little-endian
    /// words `k0`, `k1`.
    pub fn new(key: [u64; 2]) -> Self {
        Self::init(key, 0xee)
    }

    /// State under `key`; `v1_tweak` is `0xee` in 128-bit mode, 0 in the
    /// 64-bit mode.
    fn init([k0, k1]: [u64; 2], v1_tweak: u64) -> Self {
        Self {
            v: [
                k0 ^ 0x736f_6d65_7073_6575,
                k1 ^ 0x646f_7261_6e64_6f6d ^ v1_tweak,
                k0 ^ 0x6c79_6765_6e65_7261,
                k1 ^ 0x7465_6462_7974_6573,
            ],
            tail: 0,
            ntail: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.v;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    /// Absorb one message word: two compression rounds.
    #[inline(always)]
    fn compress(&mut self, m: u64) {
        self.v[3] ^= m;
        self.round();
        self.round();
        self.v[0] ^= m;
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.ntail > 0 {
            let take = (8 - self.ntail).min(data.len());
            let (head, rest) = data.split_at(take);
            for &b in head {
                self.tail |= u64::from(b) << (8 * self.ntail);
                self.ntail += 1;
            }
            data = rest;
            if self.ntail < 8 {
                return;
            }
            let m = self.tail;
            self.compress(m);
            self.tail = 0;
            self.ntail = 0;
        }
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let mut m = [0u8; 8];
            m.copy_from_slice(word);
            self.compress(u64::from_le_bytes(m));
        }
        for &b in words.remainder() {
            self.tail |= u64::from(b) << (8 * self.ntail);
            self.ntail += 1;
        }
    }

    /// Absorb the last block: the partial word with the total length's
    /// low byte on top.
    fn last_block(&mut self) {
        let b = self.tail | (self.len << 56);
        self.compress(b);
    }

    /// Four finalization rounds and the xor of the state.
    fn finalize_word(&mut self, tweak: u64) -> u64 {
        self.v[2] ^= tweak;
        for _ in 0..4 {
            self.round();
        }
        self.v.iter().fold(0, |acc, &v| acc ^ v)
    }

    /// The 16-byte digest: both output words, little-endian.
    pub fn finish(mut self) -> [u8; 16] {
        self.last_block();
        let lo = self.finalize_word(0xee);
        self.v[1] ^= 0xdd;
        // The second word's tweak goes to v1, not v2.
        let hi = self.finalize_word(0);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&lo.to_le_bytes());
        out[8..].copy_from_slice(&hi.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SipHash-2-4 with 64-bit output, on the same core.
    fn sip64(key: [u64; 2], data: &[u8]) -> u64 {
        let mut h = SipHash128::init(key, 0);
        h.update(data);
        h.last_block();
        h.finalize_word(0xff)
    }

    fn sip128(key: [u64; 2], data: &[u8]) -> [u8; 16] {
        let mut h = SipHash128::new(key);
        h.update(data);
        h.finish()
    }

    /// Message bytes `0, 1, 2, …` as in the reference test vectors.
    fn counting(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 256) as u8).collect()
    }

    #[test]
    #[allow(deprecated)]
    fn core_matches_std_siphasher() {
        use std::hash::{Hasher, SipHasher};
        let keys = [
            [0, 0],
            [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908],
            [u64::MAX, 1],
            [0x6d73_796e_632d_6670, 0x7369_7032_342d_7637],
        ];
        let data: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for key in keys {
            for n in 0..=300 {
                let mut std = SipHasher::new_with_keys(key[0], key[1]);
                std.write(&data[..n]);
                assert_eq!(sip64(key, &data[..n]), std.finish(), "key {key:x?}, len {n}");
            }
        }
    }

    #[test]
    fn reference_vectors() {
        // From the reference implementation's vectors.h: key 00..0f,
        // messages `[]` and `[0]`.
        let key = [0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908];
        let sip64_empty = [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72];
        assert_eq!(sip64(key, &[]), u64::from_le_bytes(sip64_empty));
        let vectors_128 = [
            [
                0xa3, 0x81, 0x7f, 0x04, 0xba, 0x25, 0xa8, 0xe6, 0x6d, 0xf6, 0x72, 0x14, 0xc7, 0x55,
                0x02, 0x93,
            ],
            [
                0xda, 0x87, 0xc1, 0xd8, 0x6b, 0x99, 0xaf, 0x44, 0x34, 0x76, 0x59, 0x11, 0x9b, 0x22,
                0xfc, 0x45,
            ],
        ];
        for (n, want) in vectors_128.iter().enumerate() {
            assert_eq!(&sip128(key, &counting(n)), want, "len {n}");
        }
    }

    #[test]
    fn split_updates_match_one_shot() {
        let key = [3, 5];
        let data = counting(100);
        let whole = sip128(key, &data);
        for split in 0..=data.len() {
            let mut h = SipHash128::new(key);
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split {split}");
        }
        let mut bytewise = SipHash128::new(key);
        data.iter().for_each(|b| bytewise.update(std::slice::from_ref(b)));
        assert_eq!(bytewise.finish(), whole);
    }
}
