//! Compression substrate for msync.
//!
//! Everything the paper's pipeline compresses with goes through this
//! crate, implemented from scratch:
//!
//! * [`huffman`] — canonical, length-limited Huffman coding (the entropy
//!   backend).
//! * [`lz77`] — hash-chain match finding shared by all coders.
//! * [`lz`] — a gzip-like stream compressor (LZ77 + dynamic Huffman),
//!   standing in for the paper's "algorithm similar to gzip" that
//!   compresses rsync's token stream and the baselines of Table 6.2.
//! * [`delta`] — a zdelta-like reference-based delta compressor: the
//!   protocol's delta phase and the paper's lower-bound comparator.
//! * [`vcdiff`] — a vcdiff-like byte-aligned delta coder, the paper's
//!   second delta baseline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod delta;
pub mod huffman;
pub mod lz;
pub mod lz77;
pub mod vcdiff;

/// The longest output any decoder here accepts: 4 GiB. A stream whose
/// header announces more is corrupt, and a protocol peer that announces
/// a longer file could never deliver it.
pub const MAX_STREAM_LEN: u64 = 1 << 32;

pub use delta::{decode as delta_decode, delta_size, encode as delta_encode, DeltaError};
pub use lz::{compress, decompress, LzError};
pub use vcdiff::{decode as vcdiff_decode, encode as vcdiff_encode, VcdiffError};
