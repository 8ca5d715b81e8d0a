//! Hash functions for file synchronization.
//!
//! This crate provides every hash primitive used by the msync protocol and
//! by the rsync baseline, implemented from scratch:
//!
//! * [`rolling`] — the rolling-checksum abstraction and the classic rsync
//!   rolling checksum (a two-component Adler-style sum that can slide its
//!   window by one byte in constant time).
//! * [`adler`] — the textbook Adler-32 checksum, for reference and tests.
//! * [`decomposable`] — the paper's key primitive: a keyed two-component
//!   checksum that is simultaneously *rolling*, *composable* (parent hash
//!   from child hashes), *decomposable* (sibling hash from parent + other
//!   sibling), and *bit-prefix decomposable* (all of the above hold on any
//!   low-bit truncation). Section 5.5 of the paper.
//! * [`rabin`] — a Rabin–Karp polynomial rolling hash, used by the
//!   content-defined-chunking related work and as an alternative matcher.
//! * [`md4`] / [`md5`] — the strong digests used by rsync (MD4) and by the
//!   paper's verification hashes (MD5), implemented from RFC 1320 /
//!   RFC 1321 and validated against the RFC test vectors.
//! * [`siphash`] — SipHash-2-4 with 128-bit output, checked against the
//!   standard library's 64-bit `SipHasher`.
//! * [`fingerprint`] — 16-byte whole-file fingerprints (SipHash-2-4-128)
//!   used to skip unchanged files and to detect residual synchronization
//!   failure.
//! * [`bitio`] — bit-level packing used to transmit hashes of arbitrary
//!   bit width (the protocol routinely sends 3–24 bit hashes).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adler;
pub mod bitio;
pub mod decomposable;
pub mod fingerprint;
pub mod md4;
pub mod md5;
pub mod rabin;
pub mod rolling;
pub mod siphash;

pub use adler::Adler32;
pub use bitio::{BitReader, BitWriter};
pub use decomposable::{DecomposableAdler, DecomposableDigest};
pub use fingerprint::{file_fingerprint, Fingerprint};
pub use md4::Md4;
pub use md5::Md5;
pub use rabin::RabinHash;
pub use rolling::{RollingHash, RsyncRolling};

/// Little-endian `u64` from the first 8 bytes of a digest, zero-padded
/// if the slice is shorter. Collapsing strong digests to 64-bit test
/// values this way is used throughout the protocol (verification hashes,
/// reconciliation bucket indices), so it lives here, panic-free.
#[inline]
#[must_use]
pub fn u64_prefix_le(digest: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    for (dst, src) in bytes.iter_mut().zip(digest) {
        *dst = *src;
    }
    u64::from_le_bytes(bytes)
}

/// Truncate a 64-bit hash value to its low `bits` bits (`1..=64`).
#[inline]
pub fn truncate_bits(value: u64, bits: u32) -> u64 {
    debug_assert!((1..=64).contains(&bits));
    if bits >= 64 {
        value
    } else {
        value & ((1u64 << bits) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_keeps_low_bits() {
        assert_eq!(truncate_bits(0xFFFF_FFFF_FFFF_FFFF, 4), 0xF);
        assert_eq!(truncate_bits(0xABCD, 8), 0xCD);
        assert_eq!(truncate_bits(0xABCD, 64), 0xABCD);
        assert_eq!(truncate_bits(u64::MAX, 63), u64::MAX >> 1);
    }

    #[test]
    fn u64_prefix_reads_first_eight_bytes() {
        let d = [1u8, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF];
        assert_eq!(u64_prefix_le(&d), 1);
        assert_eq!(u64_prefix_le(&[0xABu8]), 0xAB);
        assert_eq!(u64_prefix_le(&[]), 0);
    }

    #[test]
    fn truncate_one_bit() {
        assert_eq!(truncate_bits(0b1011, 1), 1);
        assert_eq!(truncate_bits(0b1010, 1), 0);
    }
}
