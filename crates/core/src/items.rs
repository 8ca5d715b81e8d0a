//! Per-round item enumeration — the deterministic heart of the protocol.
//!
//! Each round (one block size), both endpoints must agree exactly on the
//! sequence of *items* the server hashes: continuation probes first, then
//! the active blocks of the recursive partition, with derivable sibling
//! hashes marked suppressed. The sequence is a pure function of state
//! both sides share — the [`Coverage`] of confirmed regions, the set of
//! block hashes already known to the client, the file length, and the
//! configuration — so it is computed independently on each side and
//! never transmitted.

use crate::config::ProtocolConfig;
use crate::coverage::Coverage;
use std::collections::HashSet;

/// Which side of a known interval a continuation probe extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The probe covers the `D` bytes immediately *before* the interval.
    Left,
    /// The probe covers the `D` bytes immediately *after* the interval.
    Right,
}

/// How a suppressed hash is derived by the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Derivation {
    /// Offset of the (full, size `2D`) parent block whose hash the client
    /// already knows.
    pub parent_off: u64,
    /// Offset of the sibling block whose hash the client can obtain
    /// (transmitted this round, or computed from fully-known bytes).
    pub sibling_off: u64,
    /// True when the suppressed block is the right child.
    pub is_right: bool,
}

/// The kind of hash the server sends (or suppresses) for an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// Continuation probe: compared at one predicted old-file position,
    /// so only `cont_bits` wide. `anchor_edge` is the coverage boundary
    /// it extends (the interval start for `Left`, the end for `Right`).
    Cont {
        /// Which direction the probe extends the interval.
        side: Side,
        /// The coverage boundary being extended.
        anchor_edge: u64,
    },
    /// Global hash: compared against every old-file position;
    /// `log2(old_len) + extra` bits, unless derivable and suppressed.
    Global {
        /// When set, the hash is not transmitted; the client derives it.
        suppressed: Option<Derivation>,
    },
}

/// One hashed region of the new file in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    /// Offset in the new file.
    pub new_off: u64,
    /// Region length (equals the round's block size except for the tail).
    pub len: u64,
    /// What kind of hash covers it.
    pub kind: ItemKind,
}

impl Item {
    /// Bits this item occupies in the server's hash message.
    pub fn wire_bits(&self, cfg: &ProtocolConfig, global_bits: u32) -> u32 {
        match self.kind {
            ItemKind::Cont { .. } => cfg.cont_bits,
            ItemKind::Global { suppressed: Some(_) } => 0,
            ItemKind::Global { suppressed: None } => global_bits,
        }
    }
}

/// Width of global candidate hashes for a session: enough bits that the
/// expected number of false candidates per block is `2^-extra`.
pub fn global_hash_bits(old_len: u64, extra: u32) -> u32 {
    let log_n = 64 - old_len.max(2).leading_zeros();
    (log_n + extra).min(60)
}

/// Enumerate the items of one round.
///
/// `known_hashes` holds `(offset, len)` of blocks whose global hash
/// prefix the client already has (transmitted or derived in an earlier
/// round); the caller extends it with this round's global items
/// afterwards via [`extend_known_hashes`].
pub fn enumerate(
    cfg: &ProtocolConfig,
    coverage: &Coverage,
    known_hashes: &HashSet<(u64, u64)>,
    new_len: u64,
    level: u32,
) -> Vec<Item> {
    let d = cfg.block_size_at(level) as u64;
    let mut items = Vec::new();
    let mut claimed = Coverage::new();

    // Phase 1: continuation probes, extending every known interval.
    if cfg.use_continuation && d >= cfg.min_block_cont as u64 {
        for &(a, b) in coverage.intervals() {
            if a >= d && coverage.is_free(a - d, d) && claimed.is_free(a - d, d) {
                claimed.insert(a - d, d);
                items.push(Item {
                    new_off: a - d,
                    len: d,
                    kind: ItemKind::Cont { side: Side::Left, anchor_edge: a },
                });
            }
            if b + d <= new_len && coverage.is_free(b, d) && claimed.is_free(b, d) {
                claimed.insert(b, d);
                items.push(Item {
                    new_off: b,
                    len: d,
                    kind: ItemKind::Cont { side: Side::Right, anchor_edge: b },
                });
            }
        }
        items.sort_by_key(|i| i.new_off);
    }

    // Phase 2: the recursive partition's active blocks.
    if d >= cfg.min_block_global as u64 && new_len > 0 {
        let mut globals: Vec<Item> = Vec::new();
        let n_blocks = new_len.div_ceil(d);
        for i in 0..n_blocks {
            let off = i * d;
            let len = d.min(new_len - off);
            // Tails smaller than half a block wait for deeper levels (or
            // the delta phase) rather than paying a full hash now.
            if len * 2 < d {
                continue;
            }
            if !coverage.is_free(off, len) || !claimed.is_free(off, len) {
                continue;
            }
            // §5.4: the sibling of a confirmed match rarely matches too —
            // its content would usually have been found with the parent.
            if cfg.skip_sibling_of_matched {
                let sib = off ^ d;
                if sib < new_len {
                    let sib_len = d.min(new_len - sib);
                    if coverage.contains(sib, sib_len) {
                        continue;
                    }
                }
            }
            globals.push(Item { new_off: off, len, kind: ItemKind::Global { suppressed: None } });
        }

        // Phase 3: decomposable-hash suppression over full-size global
        // blocks whose full-size parent hash the client knows.
        if cfg.use_decomposable {
            let active: HashSet<u64> =
                globals.iter().filter(|it| it.len == d).map(|it| it.new_off).collect();
            for it in globals.iter_mut() {
                if it.len != d {
                    continue;
                }
                let ItemKind::Global { suppressed } = &mut it.kind else { continue };
                let off = it.new_off;
                let parent_off = off & !(2 * d - 1);
                if parent_off + 2 * d > new_len {
                    continue; // parent not full-size
                }
                if !known_hashes.contains(&(parent_off, 2 * d)) {
                    continue;
                }
                let is_right = off == parent_off + d;
                let sibling_off = if is_right { parent_off } else { parent_off + d };
                let sibling_known_bytes = coverage.contains(sibling_off, d);
                if is_right {
                    // Right child derivable if the left is transmitted
                    // this round or its bytes are fully known.
                    if active.contains(&sibling_off) || sibling_known_bytes {
                        *suppressed = Some(Derivation { parent_off, sibling_off, is_right });
                    }
                } else {
                    // Left child derivable only from fully-known right
                    // bytes (never from a transmitted right sibling —
                    // that one is suppressed in favour of this one).
                    if sibling_known_bytes && !active.contains(&sibling_off) {
                        *suppressed = Some(Derivation { parent_off, sibling_off, is_right });
                    }
                }
            }
        }
        items.extend(globals);
    }

    items
}

/// After a round, record which block hashes the client now knows (all
/// global items — transmitted or derived).
pub fn extend_known_hashes(known: &mut HashSet<(u64, u64)>, items: &[Item]) {
    for it in items {
        if matches!(it.kind, ItemKind::Global { .. }) {
            known.insert((it.new_off, it.len));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_basic() -> ProtocolConfig {
        ProtocolConfig {
            start_block: 64,
            min_block_global: 16,
            min_block_cont: 8,
            use_continuation: true,
            use_decomposable: true,
            skip_sibling_of_matched: false,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn level0_partitions_whole_file() {
        let cfg = cfg_basic();
        let cov = Coverage::new();
        let known = HashSet::new();
        let items = enumerate(&cfg, &cov, &known, 256, 0);
        // 4 blocks of 64, no coverage → no probes.
        assert_eq!(items.len(), 4);
        assert!(items.iter().all(|i| matches!(i.kind, ItemKind::Global { suppressed: None })));
        assert_eq!(items[0].new_off, 0);
        assert_eq!(items[3].new_off, 192);
    }

    #[test]
    fn covered_blocks_inactive() {
        let cfg = cfg_basic();
        let mut cov = Coverage::new();
        cov.insert(0, 64);
        let known = HashSet::new();
        let items = enumerate(&cfg, &cov, &known, 256, 0);
        // Block 0 covered; right probe at [64,128) claims that region, so
        // the level-0 block at 64 is excluded; blocks 128, 192 global.
        let probes: Vec<_> =
            items.iter().filter(|i| matches!(i.kind, ItemKind::Cont { .. })).collect();
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].new_off, 64);
        let globals: Vec<_> = items
            .iter()
            .filter(|i| matches!(i.kind, ItemKind::Global { .. }))
            .map(|i| i.new_off)
            .collect();
        assert_eq!(globals, vec![128, 192]);
    }

    #[test]
    fn suppression_of_right_sibling() {
        let cfg = cfg_basic();
        let cov = Coverage::new();
        let mut known = HashSet::new();
        // Parent hashes from level 0 (size 64) are known.
        known.insert((0, 64));
        known.insert((64, 64));
        let items = enumerate(&cfg, &cov, &known, 128, 1); // size 32
        assert_eq!(items.len(), 4);
        let suppressed: Vec<_> = items
            .iter()
            .filter(|i| matches!(i.kind, ItemKind::Global { suppressed: Some(_) }))
            .map(|i| i.new_off)
            .collect();
        // Right child of each pair suppressed.
        assert_eq!(suppressed, vec![32, 96]);
        let der = items
            .iter()
            .find(|i| i.new_off == 32)
            .map(|i| match i.kind {
                ItemKind::Global { suppressed: Some(d) } => d,
                _ => panic!(),
            })
            .unwrap();
        assert_eq!(der.parent_off, 0);
        assert_eq!(der.sibling_off, 0);
        assert!(der.is_right);
    }

    #[test]
    fn no_suppression_without_parent_hash() {
        let cfg = cfg_basic();
        let cov = Coverage::new();
        let known = HashSet::new(); // parents unknown
        let items = enumerate(&cfg, &cov, &known, 128, 1);
        assert!(items.iter().all(|i| matches!(i.kind, ItemKind::Global { suppressed: None })));
    }

    #[test]
    fn left_derivable_from_covered_right() {
        // Continuation off so the probe does not claim the block first.
        let cfg = ProtocolConfig { use_continuation: false, ..cfg_basic() };
        let mut cov = Coverage::new();
        cov.insert(32, 32); // right child of parent [0,64) fully known
        let mut known = HashSet::new();
        known.insert((0, 64));
        let items = enumerate(&cfg, &cov, &known, 64, 1); // size 32
        let left = items.iter().find(|i| i.new_off == 0).unwrap();
        match left.kind {
            ItemKind::Global { suppressed: Some(d) } => {
                assert!(!d.is_right);
                assert_eq!(d.sibling_off, 32);
            }
            ref k => panic!("left not suppressed: {k:?}"),
        }
    }

    #[test]
    fn continuation_probes_both_sides() {
        let cfg = cfg_basic();
        let mut cov = Coverage::new();
        cov.insert(64, 64);
        let known = HashSet::new();
        // Level 2 → block size 16 < min_block_global? No: 16 == min. Use
        // level 3 (size 8) for probes-only behaviour (< min_global,
        // ≥ min_cont).
        let items = enumerate(&cfg, &cov, &known, 256, 3);
        assert_eq!(items.len(), 2);
        assert!(matches!(items[0].kind, ItemKind::Cont { side: Side::Left, anchor_edge: 64 }));
        assert_eq!(items[0].new_off, 56);
        assert!(matches!(items[1].kind, ItemKind::Cont { side: Side::Right, anchor_edge: 128 }));
        assert_eq!(items[1].new_off, 128);
    }

    #[test]
    fn probes_respect_file_bounds() {
        let cfg = cfg_basic();
        let mut cov = Coverage::new();
        cov.insert(0, 32); // at file start: no left probe
        let known = HashSet::new();
        let items = enumerate(&cfg, &cov, &known, 40, 3); // size 8
        let probes: Vec<_> =
            items.iter().filter(|i| matches!(i.kind, ItemKind::Cont { .. })).collect();
        assert_eq!(probes.len(), 1);
        assert_eq!(probes[0].new_off, 32);
        // Right probe would end at 48 > 40 after the one at 32..40? No:
        // [32,40) fits exactly.
        assert_eq!(probes[0].len, 8);
    }

    #[test]
    fn skip_sibling_of_matched() {
        let cfg = ProtocolConfig { skip_sibling_of_matched: true, ..cfg_basic() };
        let mut cov = Coverage::new();
        cov.insert(0, 64); // block 0 at level 0 confirmed
        let known = HashSet::new();
        // Disable continuation so the probe doesn't claim the sibling.
        let cfg = ProtocolConfig { use_continuation: false, ..cfg };
        let items = enumerate(&cfg, &cov, &known, 256, 0);
        let offs: Vec<_> = items.iter().map(|i| i.new_off).collect();
        // Sibling of [0,64) is [64,128) → skipped.
        assert_eq!(offs, vec![128, 192]);
    }

    #[test]
    fn small_tail_skipped() {
        let cfg = cfg_basic();
        let cov = Coverage::new();
        let known = HashSet::new();
        // File of 70 bytes at block size 64: tail of 6 < 32 → skipped.
        let items = enumerate(&cfg, &cov, &known, 70, 0);
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].new_off, 0);
        // Tail of 40 ≥ 32 → included as a short item.
        let items = enumerate(&cfg, &cov, &known, 104, 0);
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].len, 40);
    }

    #[test]
    fn global_bits_scale_with_file() {
        assert_eq!(global_hash_bits(1 << 20, 8), 29);
        assert!(global_hash_bits(0, 8) >= 9);
        assert!(global_hash_bits(u64::MAX, 32) <= 60);
    }

    #[test]
    fn wire_bits_by_kind() {
        let cfg = cfg_basic();
        let g = 28;
        let mk = |kind| Item { new_off: 0, len: 16, kind };
        assert_eq!(
            mk(ItemKind::Cont { side: Side::Left, anchor_edge: 16 }).wire_bits(&cfg, g),
            cfg.cont_bits
        );
        assert_eq!(mk(ItemKind::Global { suppressed: None }).wire_bits(&cfg, g), g);
        let der = Derivation { parent_off: 0, sibling_off: 16, is_right: true };
        assert_eq!(mk(ItemKind::Global { suppressed: Some(der) }).wire_bits(&cfg, g), 0);
    }
}
