//! Whole-file fingerprints.
//!
//! The session begins with "the exchange of a very strong 16-byte hash
//! value for each file" (paper §6.1), which (a) detects unchanged files so
//! they can be skipped entirely, and (b) detects the unlikely residual
//! failure of the weak-hash protocol, in which case the file is re-sent.
//!
//! The hash is SipHash-2-4 in its 128-bit output mode
//! ([`crate::siphash`]) under [`FINGERPRINT_KEY`], over the file's length
//! as a little-endian `u64` followed by its bytes. It replaced MD5 in
//! protocol v7 for speed: both ends fingerprint every file of a
//! collection on every sync, and SipHash runs about four times as fast.
//! The key is public, so like MD5 before it this guards against random
//! mismatch, not against a peer that crafts collisions.

use crate::siphash::SipHash128;

/// The fingerprint's SipHash key: a protocol constant both ends share,
/// like the decomposable hash's byte-table seed. Changing it changes
/// every fingerprint, so it needs a protocol version bump.
pub const FINGERPRINT_KEY: [u64; 2] =
    [u64::from_le_bytes(*b"msync-fp"), u64::from_le_bytes(*b"sip24-v7")];

/// A 16-byte strong file fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 16]);

impl Fingerprint {
    /// Number of bytes on the wire.
    pub const WIRE_LEN: usize = 16;

    /// Hex rendering for logs and reports.
    pub fn to_hex(self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Fingerprint a file's contents. The length is mixed in so that files
/// differing only by trailing truncation to a block boundary cannot alias
/// through any block-structure quirk upstream.
pub fn file_fingerprint(data: &[u8]) -> Fingerprint {
    let mut h = SipHash128::new(FINGERPRINT_KEY);
    h.update(&(data.len() as u64).to_le_bytes());
    h.update(data);
    Fingerprint(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_content_equal_fingerprint() {
        assert_eq!(file_fingerprint(b"hello"), file_fingerprint(b"hello"));
    }

    #[test]
    fn different_content_different_fingerprint() {
        assert_ne!(file_fingerprint(b"hello"), file_fingerprint(b"hellp"));
        assert_ne!(file_fingerprint(b""), file_fingerprint(b"\0"));
    }

    #[test]
    fn golden_values() {
        // Pinned outputs: a change here changes every fingerprint on the
        // wire, and needs a protocol version bump.
        assert_eq!(file_fingerprint(b"").to_hex(), "281e54b1fb4952ab0f75d1a393f50a6f");
        assert_eq!(file_fingerprint(b"hello").to_hex(), "c2f466a429245ec68620aa8301eb348e");
        assert_eq!(file_fingerprint(&[0; 4096]).to_hex(), "0801c9a8074dc04abf8147673e3855d4");
    }

    #[test]
    fn hex_format() {
        let f = file_fingerprint(b"x");
        let hex = f.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
