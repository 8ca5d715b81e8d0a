//! Match finding: where in the old file does each received hash occur?
//!
//! The client finds global-hash matches the way rsync's sender does,
//! with the table on the *received* side: a round's hash values go into
//! a small table of targets, `f_old` is rolled over once with the
//! decomposable checksum at the round's window size, and every position
//! probes the table ([`first_positions`]). Memory is proportional to the
//! items of the round, not to the file, and the scan stops as soon as
//! every target has a position. One scan per window size is the
//! "repeated passes over the data" of the paper's CPU discussion.
//!
//! The probe works on the checksum's two sums directly. The low `bits`
//! bits of `interleave(a, b)` are the low `⌈bits/2⌉` bits of `a` and the
//! low `⌊bits/2⌋` bits of `b`, so each target is de-interleaved once and
//! a position matches when its two masked sums equal the target's.

use msync_hash::decomposable::{deinterleave, DecomposableAdler, DecomposableDigest, G};
use msync_hash::rolling::scan_rolling;
use msync_hash::truncate_bits;
use std::collections::HashMap;

/// Words of the tag bitmap in front of the target table: 64 Kbit, one
/// bit per 16-bit tag, as in rsync's tag table.
const TAG_WORDS: usize = 1 << 10;
/// Multiplier spreading a packed `(a, b)` key over 64 bits; the slot
/// is taken from the top of the product.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
/// Positions rolled between two "every target placed?" checks.
const CHECK_EVERY: usize = 256;

/// One scan's distinct targets: open addressing from a target's `(a, b)`
/// pair to the lowest position seen so far. The scan consults it only
/// for positions that pass the tag bitmap.
struct TargetTable {
    /// `(key, lowest position found)`; at most half the slots are taken.
    slots: Vec<Option<(u64, Option<u64>)>>,
    shift: u32,
    /// Distinct targets with no position yet.
    missing: usize,
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    (u64::from(a) << 32) | u64::from(b)
}

/// The packed key of a `bits`-bit target value. A value with bits above
/// `bits` keeps them, so it equals no masked window key.
#[inline]
fn target_key(target: u64) -> u64 {
    let (a, b) = deinterleave(target);
    pack(a, b)
}

/// Masks selecting the part of `(a, b)` that the low `bits` bits of
/// `interleave(a, b)` carry: `⌈bits/2⌉` bits of `a`, `⌊bits/2⌋` of `b`.
fn component_masks(bits: u32) -> (u32, u32) {
    let low = |n: u32| if n >= 32 { u32::MAX } else { (1u32 << n) - 1 };
    (low(bits.div_ceil(2)), low(bits / 2))
}

impl TargetTable {
    fn new(targets: &[u64]) -> Self {
        let capacity = (targets.len() * 2).next_power_of_two().max(2);
        let mut table =
            Self { slots: vec![None; capacity], shift: 64 - capacity.trailing_zeros(), missing: 0 };
        for &target in targets {
            let key = target_key(target);
            let slot = table.slot_of(key);
            if table.slots[slot].is_none() {
                table.slots[slot] = Some((key, None));
                table.missing += 1;
            }
        }
        table
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // The top `log2(slots.len())` bits: always a valid index.
        let mut slot = (key.wrapping_mul(MIX) >> self.shift) as usize;
        while self.slots[slot].is_some_and(|(k, _)| k != key) {
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        slot
    }

    /// Offer the window at `pos`, whose masked key passed the bitmap.
    /// Positions arrive in ascending order, so the first one a target
    /// sees is its lowest.
    fn place(&mut self, key: u64, pos: usize) {
        let slot = self.slot_of(key);
        if let Some((_, first @ None)) = &mut self.slots[slot] {
            *first = Some(pos as u64);
            self.missing -= 1;
        }
    }

    fn first(&self, target: u64) -> Option<u64> {
        self.slots[self.slot_of(target_key(target))].and_then(|(_, first)| first)
    }
}

/// For each of `targets`, the lowest position in `old` whose
/// `window`-byte window has that `bits`-bit decomposable hash, or `None`
/// where no window has it. One rolling pass over `old`, cut short once
/// every target is placed; duplicate targets get the same answer.
pub fn first_positions(old: &[u8], window: usize, bits: u32, targets: &[u64]) -> Vec<Option<u64>> {
    if window == 0 || old.len() < window || targets.is_empty() {
        return vec![None; targets.len()];
    }
    let mut table = TargetTable::new(targets);
    scan(old, window, component_masks(bits), &mut table);
    targets.iter().map(|&target| table.first(target)).collect()
}

/// The scan itself: roll the checksum's two sums over every window of
/// `old` and hand each position whose masked sums pass the tag bitmap
/// to `table`, in ascending order. Whether every target is placed is
/// checked once per [`CHECK_EVERY`] positions; positions past the last
/// placement change nothing.
fn scan(old: &[u8], window: usize, masks: (u32, u32), table: &mut TargetTable) {
    let mut roller = Roller::boxed(&old[..window], masks, table);
    if let Some(key) = roller.hit(roller.a, roller.b) {
        table.place(key, 0);
    }
    let steps = old.len() - window;
    let blocks = old[..steps].chunks(CHECK_EVERY).zip(old[window..].chunks(CHECK_EVERY));
    for (start, (outs, ins)) in (1..).step_by(CHECK_EVERY).zip(blocks) {
        if table.missing == 0 {
            break;
        }
        let found = roller.roll_block(outs, ins, start);
        for &(key, pos) in &roller.hits[..found] {
            table.place(key, pos);
        }
    }
}

/// A scan's state. Everything the rolling loop touches lives here,
/// apart from the target table: the sums, the masks, the tag bitmap, a
/// table of `window·g(x)` that turns the rolling update's multiply into
/// a load (`B' = B − L·g(out) + A'`), and the current block's hits.
///
/// A window's tag is its bitmap word from the low bits of the masked
/// `A` and its bit in the word from the low bits of the masked `B`. The
/// sums of a pseudorandom byte table are uniform, so their low bits need
/// no mixing, and a tag taken from the masked sums alone is the same for
/// every window that matches a target.
struct Roller {
    a: u32,
    b: u32,
    /// The packed masks of the two sums.
    mask: u64,
    /// The bits of `A` that pick the word, and of `B` that pick the bit.
    word_mask: u32,
    bit_mask: u32,
    leaving: [u32; 256],
    tags: [u64; TAG_WORDS],
    /// The current block's bitmap hits: packed masked sums, position.
    hits: [(u64, usize); CHECK_EVERY],
}

impl Roller {
    /// The state at the first window. On the heap, like the tables of
    /// the rest of the sync: a thread's stack keeps every page it ever
    /// touched, and there would be one such frame per worker thread.
    fn boxed(first: &[u8], (mask_a, mask_b): (u32, u32), table: &TargetTable) -> Box<Self> {
        // Built zeroed and filled in place: a literal with the sums and
        // weights in it is assembled on the stack first.
        let mut roller = Box::new(Self {
            a: 0,
            b: 0,
            mask: pack(mask_a, mask_b),
            word_mask: mask_a & (TAG_WORDS as u32 - 1),
            bit_mask: mask_b & 63,
            leaving: [0; 256],
            tags: [0; TAG_WORDS],
            hits: [(0, 0); CHECK_EVERY],
        });
        let DecomposableDigest { a, b, .. } = DecomposableDigest::of(first);
        (roller.a, roller.b) = (a, b);
        let len_weight = first.len() as u32;
        for (weight, g) in roller.leaving.iter_mut().zip(G) {
            *weight = len_weight.wrapping_mul(g);
        }
        for &(key, _) in table.slots.iter().flatten() {
            let (word, bit) = roller.tag((key >> 32) as u32, key as u32);
            roller.tags[word] |= bit;
        }
        roller
    }

    /// Word and bit of the tag of sums `(a, b)`. `word_mask` already
    /// keeps the word in range; the second mask spares the bounds check.
    #[inline(always)]
    fn tag(&self, a: u32, b: u32) -> (usize, u64) {
        ((a & self.word_mask) as usize & (TAG_WORDS - 1), 1 << (b & self.bit_mask))
    }

    /// The packed masked sums `(a, b)`, if their tag bit is set.
    #[inline(always)]
    fn hit(&self, a: u32, b: u32) -> Option<u64> {
        let (word, bit) = self.tag(a, b);
        (self.tags[word] & bit != 0).then(|| pack(a, b) & self.mask)
    }

    /// Roll over one block: byte `outs[i]` leaves and `ins[i]` enters to
    /// make the window at `start + i`. The block's bitmap hits go into
    /// `hits` in order; returns how many. Out of line and calling
    /// nothing, so the loop keeps its state in registers.
    #[inline(never)]
    fn roll_block(&mut self, outs: &[u8], ins: &[u8], start: usize) -> usize {
        let (mut a, mut b) = (self.a, self.b);
        let mut found = 0;
        for (pos, (&out, &in_)) in (start..).zip(outs.iter().zip(ins)) {
            a = a.wrapping_sub(G[usize::from(out)]).wrapping_add(G[usize::from(in_)]);
            b = b.wrapping_sub(self.leaving[usize::from(out)]).wrapping_add(a);
            if let Some(key) = self.hit(a, b) {
                // A block has at most `CHECK_EVERY` positions, so the
                // mask never wraps; it spares the bounds check.
                self.hits[found & (CHECK_EVERY - 1)] = (key, pos);
                found += 1;
            }
        }
        (self.a, self.b) = (a, b);
        found
    }
}

/// Hash-value → old-file positions for one window size, every offset of
/// the file stored. The sync no longer builds this: it is the reference
/// implementation that [`first_positions`] is tested against and that
/// the benchmark's `core.index.*` replay measures.
#[derive(Debug)]
pub struct PositionIndex {
    map: HashMap<u64, Vec<u32>>,
    window: usize,
    bits: u32,
}

impl PositionIndex {
    /// Scan `old` at `window` bytes, keeping up to `max_positions`
    /// positions per `bits`-bit hash value.
    pub fn build(old: &[u8], window: usize, bits: u32, max_positions: usize) -> Self {
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        if window > 0 && old.len() >= window {
            let mut h = DecomposableAdler::new();
            scan_rolling(&mut h, old, window, |pos, value| {
                let key = truncate_bits(value, bits);
                let entry = map.entry(key).or_default();
                if entry.len() < max_positions {
                    entry.push(pos as u32);
                }
            });
        }
        Self { map, window, bits }
    }

    /// Candidate positions for a truncated hash value.
    pub fn lookup(&self, hash: u64) -> &[u32] {
        self.map.get(&hash).map_or(&[], |v| v.as_slice())
    }

    /// Window size this index was built for.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Hash width this index was built for.
    pub fn bits(&self) -> u32 {
        self.bits
    }
}

/// Compare a `bits`-bit hash against a single predicted position
/// (continuation probes): does `old[pos..pos+len]` hash to `target`?
pub fn matches_at(old: &[u8], pos: i64, len: usize, bits: u32, target: u64) -> bool {
    if pos < 0 || (pos as usize) + len > old.len() {
        return false;
    }
    let d = DecomposableDigest::of(&old[pos as usize..pos as usize + len]);
    d.prefix(bits) == target
}

#[cfg(test)]
mod tests {
    use super::*;

    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            (self.next() >> 11) % n
        }
    }

    fn data(n: usize) -> Vec<u8> {
        let mut rng = XorShift(0x1234_5678_9ABC_DEF0);
        (0..n).map(|_| (rng.next() >> 56) as u8).collect()
    }

    /// What the sync did before the inverted scan: index every offset,
    /// take the first stored position.
    fn reference(old: &[u8], window: usize, bits: u32, targets: &[u64]) -> Vec<Option<u64>> {
        let index = PositionIndex::build(old, window, bits, 4);
        targets.iter().map(|&t| index.lookup(t).first().map(|&p| u64::from(p))).collect()
    }

    /// `first_positions` against the oracle on one input.
    fn assert_agrees(old: &[u8], window: usize, bits: u32, targets: &[u64], what: &str) {
        assert_eq!(
            first_positions(old, window, bits, targets),
            reference(old, window, bits, targets),
            "{what}: len {}, window {window}, bits {bits}, {} targets",
            old.len(),
            targets.len()
        );
    }

    /// `count` targets for a scan of `old`: hashes of windows that are
    /// there, repeats of earlier targets, and values that are most likely
    /// nowhere (sometimes wider than `bits`).
    fn some_targets(
        rng: &mut XorShift,
        old: &[u8],
        window: usize,
        bits: u32,
        count: u64,
    ) -> Vec<u64> {
        let mut targets = Vec::new();
        for _ in 0..count {
            match rng.below(4) {
                0 | 1 if window > 0 && window <= old.len() => {
                    let at = rng.below((old.len() - window + 1) as u64) as usize;
                    targets.push(DecomposableDigest::of(&old[at..at + window]).prefix(bits));
                }
                2 if !targets.is_empty() => {
                    targets.push(targets[rng.below(targets.len() as u64) as usize]);
                }
                _ => targets.push(rng.next() >> rng.below(64)),
            }
        }
        targets
    }

    #[test]
    fn scan_agrees_with_position_index() {
        let mut rng = XorShift(0x6d73_796e_0016);
        for case in 0..400 {
            // A small alphabet makes repeated windows (and so the
            // lowest-position rule) common.
            let len = rng.below(1500) as usize;
            let alphabet = 1 + rng.below(if case % 4 == 0 { 2 } else { 256 });
            let old: Vec<u8> = (0..len).map(|_| rng.below(alphabet) as u8).collect();
            let window = match rng.below(8) {
                0 => 0,
                1 => len,
                2 => len + 1,
                3 => 1,
                4 => len.saturating_sub(1),
                _ => 1 + rng.below(len.max(1) as u64) as usize,
            };
            let bits = 2 + (case % 59) as u32; // 2..=60, odd and even
            let count = rng.below(40);
            let targets = some_targets(&mut rng, &old, window, bits, count);
            assert_agrees(&old, window, bits, &targets, &format!("case {case}"));
        }

        // Positions on either side of the scan's every-`CHECK_EVERY`
        // check, at every width: the first and the last window are
        // targets, so the scan must run to the end and report both. The
        // last byte occurs nowhere else, so at 40 bits and more the last
        // window's hash is nowhere earlier.
        for steps in [0, 1, 2, 254, 255, 256, 257, 258, 511, 512, 513] {
            for window in [1, 2, 17, 300] {
                let len = steps + window;
                let mut old: Vec<u8> = (0..len).map(|_| rng.below(255) as u8).collect();
                old[len - 1] = 255;
                for bits in 2..=60 {
                    let first = DecomposableDigest::of(&old[..window]).prefix(bits);
                    let last = DecomposableDigest::of(&old[steps..]).prefix(bits);
                    let mut targets = some_targets(&mut rng, &old, window, bits, 3);
                    targets.extend([last, first, last]);
                    let what = format!("{steps} steps");
                    assert_agrees(&old, window, bits, &targets, &what);
                    assert_agrees(&old, len + 1, bits, &targets, &what);
                    let found = first_positions(&old, window, bits, &[first, last]);
                    assert_eq!(found[0], Some(0), "{what}, bits {bits}");
                    if bits >= 40 {
                        assert_eq!(found[1], Some(steps as u64), "{what}, bits {bits}");
                    }
                }
            }
        }

        // Rounds from one target to more than 4 096.
        let old: Vec<u8> = (0..6000).map(|_| rng.below(256) as u8).collect();
        for count in [1, 2, 900, 1100, 1500, 4097, 5000] {
            for bits in [2, 13, 24, 33, 48, 60] {
                for window in [1, 32] {
                    let targets = some_targets(&mut rng, &old, window, bits, count);
                    assert_agrees(&old, window, bits, &targets, &format!("{count} targets"));
                }
            }
        }

        // A block of nothing but hits: at 2 bits a one-byte window's tag
        // is its whole key, so with both keys as targets every position
        // passes the bitmap, and the second key first occurs at the last
        // position of the first full block.
        let key = |byte: u8| DecomposableDigest::of(&[byte]).prefix(2);
        let other = (1..=255).find(|&byte| key(byte) != key(0)).expect("two keys");
        let mut old = vec![0; CHECK_EVERY];
        old.push(other);
        let targets = [key(0), key(other)];
        assert_eq!(first_positions(&old, 1, 2, &targets), [Some(0), Some(CHECK_EVERY as u64)]);
        assert_agrees(&old, 1, 2, &targets, "a block of hits");
    }

    #[test]
    fn scan_on_a_constant_file_reports_position_zero() {
        let old = vec![7u8; 1000]; // every window identical
        let hit = DecomposableDigest::of(&old[..16]).prefix(20);
        let targets = [hit, hit ^ 1, hit];
        assert_eq!(first_positions(&old, 16, 20, &targets), [Some(0), None, Some(0)]);
        assert_eq!(first_positions(&old, 16, 20, &targets), reference(&old, 16, 20, &targets));
    }

    #[test]
    fn scan_degenerate_inputs() {
        let old = data(64);
        let whole = DecomposableDigest::of(&old).prefix(24);
        assert_eq!(first_positions(&old, 64, 24, &[whole]), [Some(0)]);
        assert_eq!(first_positions(&old, 65, 24, &[whole]), [None]);
        assert_eq!(first_positions(&old, 0, 24, &[whole, 0]), [None, None]);
        assert_eq!(first_positions(&old, 16, 24, &[]), []);
        assert_eq!(first_positions(&[], 16, 24, &[whole]), [None]);
    }

    #[test]
    fn masked_components_equal_iff_truncated_values_equal() {
        use msync_hash::decomposable::interleave;
        let mut rng = XorShift(0x6d73_796e_0017);
        for bits in 1..=64u32 {
            let (mask_a, mask_b) = component_masks(bits);
            assert_eq!(mask_a.count_ones() + mask_b.count_ones(), bits);
            for case in 0..200 {
                let (a, b) = (rng.next() as u32, rng.next() as u32);
                // Every other pair differs from `(a, b)` in a few bits
                // only, so both outcomes occur at every width.
                let (c, d) = if case % 2 == 0 {
                    (a ^ (1 << rng.below(32)), b ^ (1 << rng.below(32)))
                } else {
                    (rng.next() as u32, rng.next() as u32)
                };
                for (c, d) in [(c, d), (a, d), (c, b), (a, b)] {
                    let components = (a & mask_a, b & mask_b) == (c & mask_a, d & mask_b);
                    let values = truncate_bits(interleave(a, b), bits)
                        == truncate_bits(interleave(c, d), bits);
                    assert_eq!(components, values, "bits {bits}: ({a:#x},{b:#x}) ({c:#x},{d:#x})");
                }
            }
        }
    }

    #[test]
    fn index_finds_every_block() {
        let old = data(2048);
        let idx = PositionIndex::build(&old, 64, 30, 4);
        for start in (0..2048 - 64).step_by(64) {
            let h = DecomposableDigest::of(&old[start..start + 64]).prefix(30);
            let positions = idx.lookup(h);
            assert!(positions.contains(&(start as u32)), "position {start} missing");
        }
    }

    #[test]
    fn lookup_missing_value_empty() {
        let old = data(256);
        let idx = PositionIndex::build(&old, 32, 24, 4);
        // A value that cannot be a 24-bit truncation.
        assert!(idx.lookup(1 << 40).is_empty());
    }

    #[test]
    fn max_positions_cap() {
        let old = vec![0u8; 1000]; // every window identical
        let idx = PositionIndex::build(&old, 16, 20, 3);
        let h = DecomposableDigest::of(&old[..16]).prefix(20);
        assert_eq!(idx.lookup(h).len(), 3);
    }

    #[test]
    fn window_longer_than_file() {
        let idx = PositionIndex::build(b"short", 64, 20, 4);
        assert!(idx.map.is_empty());
        assert_eq!(idx.window(), 64);
        assert_eq!(idx.bits(), 20);
    }

    #[test]
    fn matches_at_predicted_position() {
        let old = data(512);
        let target = DecomposableDigest::of(&old[100..132]).prefix(4);
        assert!(matches_at(&old, 100, 32, 4, target));
        assert!(!matches_at(&old, -1, 32, 4, target));
        assert!(!matches_at(&old, 500, 32, 4, target)); // out of bounds
    }
}
