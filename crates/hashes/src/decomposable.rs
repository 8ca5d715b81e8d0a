//! The decomposable rolling checksum (paper §5.5).
//!
//! The protocol sends hashes for blocks at every level of a binary tree of
//! block sizes. Since a parent's hash has already been sent, a
//! *decomposable* hash lets the client compute the right sibling's hash
//! from the parent's and the left sibling's — halving the hash bits sent
//! per round. The paper notes that "designing appropriate hash functions
//! to implement this is nontrivial" and builds a modified Adler checksum;
//! this module is our version of that construction.
//!
//! ## Construction
//!
//! Fix a keyed nonlinear byte table `g: u8 → u32` (a pseudorandom table —
//! this defeats the permutation weakness of the plain Adler sums, which the
//! paper calls out: "strings that can be obtained from each other through
//! permutation should not be mapped to the same hash too often"). Over a
//! string `s` of length `L` define, in `ℤ/2³²`:
//!
//! ```text
//! A(s) = Σᵢ g(sᵢ)            B(s) = Σᵢ (L−i)·g(sᵢ)
//! ```
//!
//! These satisfy every property the paper asks of the hash (§5.5):
//!
//! * **rolling** — sliding the window right by one byte:
//!   `A' = A − g(out) + g(in)`, `B' = B − L·g(out) + A'`.
//! * **composable** — for concatenation `l·r` with `|r| = n`:
//!   `A(lr) = A(l)+A(r)`, `B(lr) = B(l) + n·A(l) + B(r)`.
//! * **decomposable** — solve the composition identities for either child.
//! * **bit-prefix decomposable** — all identities are `+`, `−`, and
//!   multiplication by known lengths, so they hold modulo `2ᵏ` for every
//!   `k`: the low `k` bits of a child follow from the low `k` bits of the
//!   parent and sibling. The transmitted hash value *interleaves* the bits
//!   of `A` and `B` so that any `b`-bit prefix carries `⌈b/2⌉` bits of `A`
//!   and `⌊b/2⌋` bits of `B`, and the `A` surplus is exactly what the `B`
//!   decomposition needs.

use crate::rolling::RollingHash;

/// Keyed byte table: splitmix64 stream over a fixed seed, computed at
/// compile time. Both endpoints must share the table (it is part of the
/// protocol definition, like rsync's choice of checksum).
const fn build_table(seed: u64) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut state = seed;
    let mut i = 0;
    while i < 256 {
        // splitmix64 step
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        table[i] = (z >> 17) as u32;
        i += 1;
    }
    table
}

/// The shared byte table `g`. Public so that a scan which rolls the two
/// sums itself (the client's match scan) uses the same weights.
pub const G: [u32; 256] = build_table(0x6D73_796E_6331_3939); // "msync1 99"

/// Digest of a block under the decomposable checksum: both components plus
/// the block length (lengths are known to both sides from the block tree,
/// but carrying them makes compose/decompose self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecomposableDigest {
    /// Unweighted component `A`.
    pub a: u32,
    /// Position-weighted component `B`.
    pub b: u32,
    /// Block length in bytes.
    pub len: u64,
}

impl DecomposableDigest {
    /// Digest of the empty string.
    pub const EMPTY: Self = Self { a: 0, b: 0, len: 0 };

    /// Compute the digest of a block.
    ///
    /// `B = Σᵢ (L−i)·g(sᵢ)` is the sum of the prefix sums of `A`, so one
    /// running sum per component computes it without a multiply per
    /// byte.
    pub fn of(data: &[u8]) -> Self {
        let mut a = 0u32;
        let mut b = 0u32;
        for &byte in data {
            a = a.wrapping_add(G[byte as usize]);
            b = b.wrapping_add(a);
        }
        Self { a, b, len: data.len() as u64 }
    }

    /// Parent digest from the two children: `self · right`.
    pub fn compose(&self, right: &Self) -> Self {
        Self {
            a: self.a.wrapping_add(right.a),
            b: self.b.wrapping_add(right.b).wrapping_add((right.len as u32).wrapping_mul(self.a)),
            len: self.len + right.len,
        }
    }

    /// Right child from parent (`self`) and left child.
    ///
    /// Returns `None` if the left child is longer than the parent.
    pub fn decompose_right(&self, left: &Self) -> Option<Self> {
        let right_len = self.len.checked_sub(left.len)?;
        let a = self.a.wrapping_sub(left.a);
        let b = self.b.wrapping_sub(left.b).wrapping_sub((right_len as u32).wrapping_mul(left.a));
        Some(Self { a, b, len: right_len })
    }

    /// Left child from parent (`self`) and right child.
    pub fn decompose_left(&self, right: &Self) -> Option<Self> {
        let left_len = self.len.checked_sub(right.len)?;
        let a = self.a.wrapping_sub(right.a);
        let b = self.b.wrapping_sub(right.b).wrapping_sub((right.len as u32).wrapping_mul(a));
        Some(Self { a, b, len: left_len })
    }

    /// The transmitted hash value: bits of `A` and `B` interleaved
    /// (`A` on even positions), so any low-bit prefix keeps usable low
    /// bits of both components.
    pub fn value(&self) -> u64 {
        interleave(self.a, self.b)
    }

    /// The low `bits`-bit prefix of [`Self::value`].
    pub fn prefix(&self, bits: u32) -> u64 {
        crate::truncate_bits(self.value(), bits)
    }
}

/// Morton-interleave: bit `i` of `a` goes to bit `2i`, bit `i` of `b` to
/// bit `2i+1`.
#[inline]
pub fn interleave(a: u32, b: u32) -> u64 {
    spread(a) | (spread(b) << 1)
}

/// Inverse of [`interleave`].
#[inline]
pub fn deinterleave(v: u64) -> (u32, u32) {
    (compact(v), compact(v >> 1))
}

#[inline]
fn spread(x: u32) -> u64 {
    let mut x = x as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

#[inline]
fn compact(x: u64) -> u32 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Derive the `bits`-bit prefix of the *right* sibling's hash value from
/// the `bits`-bit prefixes of the parent's and left sibling's values.
///
/// This is the wire-level operation the protocol performs when the server
/// suppresses every other sibling hash (paper §5.6: "the decomposability of
/// the hash function is implemented at a lower level by suppressing the
/// transmission of hash bits that can be computed from sibling and ancestor
/// hashes"). `left_len` and `right_len` are known to both sides from the
/// block tree.
pub fn prefix_decompose_right(
    parent_prefix: u64,
    left_prefix: u64,
    bits: u32,
    right_len: u64,
) -> u64 {
    let (pa, pb) = deinterleave(parent_prefix);
    let (la, lb) = deinterleave(left_prefix);
    let ra = pa.wrapping_sub(la);
    let rb = pb.wrapping_sub(lb).wrapping_sub((right_len as u32).wrapping_mul(la));
    crate::truncate_bits(interleave(ra, rb), bits)
}

/// Derive the `bits`-bit prefix of the *left* sibling's hash value from the
/// parent's and right sibling's prefixes. See [`prefix_decompose_right`].
pub fn prefix_decompose_left(
    parent_prefix: u64,
    right_prefix: u64,
    bits: u32,
    right_len: u64,
) -> u64 {
    let (pa, pb) = deinterleave(parent_prefix);
    let (ra, rb) = deinterleave(right_prefix);
    let la = pa.wrapping_sub(ra);
    let lb = pb.wrapping_sub(rb).wrapping_sub((right_len as u32).wrapping_mul(la));
    crate::truncate_bits(interleave(la, lb), bits)
}

/// Rolling-window form of the decomposable checksum, for scanning a file
/// at every offset (global-hash matching).
#[derive(Debug, Clone, Default)]
pub struct DecomposableAdler {
    a: u32,
    b: u32,
    len: usize,
}

impl DecomposableAdler {
    /// Create an empty state; call [`RollingHash::reset`] before use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The window's two sums `(A, B)`; [`RollingHash::value`] is their
    /// interleaving, so a scan that compares components can skip it.
    #[inline]
    pub fn sums(&self) -> (u32, u32) {
        (self.a, self.b)
    }
}

impl RollingHash for DecomposableAdler {
    fn reset(&mut self, data: &[u8]) {
        let d = DecomposableDigest::of(data);
        self.a = d.a;
        self.b = d.b;
        self.len = data.len();
    }

    #[inline]
    fn roll(&mut self, out: u8, in_: u8) {
        let go = G[out as usize];
        let gi = G[in_ as usize];
        self.a = self.a.wrapping_sub(go).wrapping_add(gi);
        self.b = self.b.wrapping_sub((self.len as u32).wrapping_mul(go)).wrapping_add(self.a);
    }

    fn value(&self) -> u64 {
        interleave(self.a, self.b)
    }

    fn window_len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rolling::RollingHash;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 131 + 17) % 256) as u8).collect()
    }

    /// The digest by its defining formula, one multiply per byte.
    fn by_formula(data: &[u8]) -> (u32, u32) {
        let len = data.len() as u32;
        data.iter().enumerate().fold((0u32, 0u32), |(a, b), (i, &byte)| {
            let g = G[byte as usize];
            (a.wrapping_add(g), b.wrapping_add(len.wrapping_sub(i as u32).wrapping_mul(g)))
        })
    }

    #[test]
    fn running_sums_match_the_formula() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for n in (0..300).chain([1024, 4096, 16 << 10]) {
            let block: Vec<u8> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 56) as u8
                })
                .collect();
            let d = DecomposableDigest::of(&block);
            assert_eq!((d.a, d.b), by_formula(&block), "len {n}");
        }
    }

    #[test]
    fn roll_matches_recompute() {
        let d = data(300);
        let window = 32;
        let mut h = DecomposableAdler::new();
        h.reset(&d[..window]);
        for start in 1..(d.len() - window) {
            h.roll(d[start - 1], d[start + window - 1]);
            let fresh = DecomposableDigest::of(&d[start..start + window]);
            assert_eq!(h.value(), fresh.value(), "offset {start}");
        }
    }

    #[test]
    fn compose_matches_direct() {
        let d = data(257);
        for split in [0usize, 1, 64, 128, 200, 257] {
            let l = DecomposableDigest::of(&d[..split]);
            let r = DecomposableDigest::of(&d[split..]);
            assert_eq!(l.compose(&r), DecomposableDigest::of(&d), "split {split}");
        }
    }

    #[test]
    fn decompose_inverts_compose() {
        let d = data(513);
        for split in [1usize, 99, 256, 400] {
            let l = DecomposableDigest::of(&d[..split]);
            let r = DecomposableDigest::of(&d[split..]);
            let p = l.compose(&r);
            assert_eq!(p.decompose_right(&l), Some(r));
            assert_eq!(p.decompose_left(&r), Some(l));
        }
    }

    #[test]
    fn decompose_rejects_oversized_child() {
        let p = DecomposableDigest::of(b"abc");
        let big = DecomposableDigest::of(b"abcdef");
        assert_eq!(p.decompose_right(&big), None);
        assert_eq!(p.decompose_left(&big), None);
    }

    #[test]
    fn interleave_roundtrip() {
        for (a, b) in [(0u32, 0u32), (1, 0), (0, 1), (u32::MAX, 0), (0xDEAD_BEEF, 0x1234_5678)] {
            assert_eq!(deinterleave(interleave(a, b)), (a, b));
        }
    }

    #[test]
    fn prefix_decompose_matches_full_decompose() {
        let d = data(1024);
        let split = 512;
        let l = DecomposableDigest::of(&d[..split]);
        let r = DecomposableDigest::of(&d[split..]);
        let p = l.compose(&r);
        for bits in [2u32, 3, 8, 13, 16, 24, 31, 48, 64] {
            let derived = prefix_decompose_right(p.prefix(bits), l.prefix(bits), bits, r.len);
            assert_eq!(derived, r.prefix(bits), "bits {bits}");
            let derived_l = prefix_decompose_left(p.prefix(bits), r.prefix(bits), bits, r.len);
            assert_eq!(derived_l, l.prefix(bits), "bits {bits}");
        }
    }

    #[test]
    fn permutation_usually_changes_hash() {
        // The keyed table plus position weighting must separate permuted
        // strings: check on a batch of adjacent-swap permutations.
        let base = data(64);
        let h0 = DecomposableDigest::of(&base).value();
        let mut collisions = 0;
        for i in 0..63 {
            if base[i] == base[i + 1] {
                continue;
            }
            let mut p = base.clone();
            p.swap(i, i + 1);
            if DecomposableDigest::of(&p).value() == h0 {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn empty_digest() {
        assert_eq!(DecomposableDigest::of(b""), DecomposableDigest::EMPTY);
        let d = DecomposableDigest::of(b"xyz");
        assert_eq!(DecomposableDigest::EMPTY.compose(&d), d);
        assert_eq!(d.compose(&DecomposableDigest::EMPTY), d);
    }
}
