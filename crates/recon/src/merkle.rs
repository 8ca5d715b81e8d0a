//! Merkle-difference reconciliation (Metzner \[28,29\] family).
//!
//! Both sides bucket their (name, fingerprint) pairs into a fixed
//! power-of-two bucket space by name hash, build the same-shaped binary
//! hash tree over the buckets, and walk it top-down: a node whose hash
//! matches the peer's is *settled* (everything below is identical); a
//! differing node descends. Only the leaf buckets under differing paths
//! exchange their contents. For `d` changed files out of `n`, about
//! `d·log₂(n/d)` node hashes cross the wire instead of `n` fingerprints.

use crate::{diff_names, Item, ReconOutcome};
use msync_hash::Md5;

/// Bytes per transmitted node hash (16-byte MD5 truncated; 8 bytes keeps
/// collision odds negligible at directory scale).
pub const NODE_HASH_BYTES: usize = 8;

/// Pick the bucket-space depth for `n` items: about one item per bucket.
pub fn depth_for(n: usize) -> u32 {
    (n.max(1)).next_power_of_two().trailing_zeros()
}

/// Which bucket a name falls in, out of `2^depth`.
fn bucket_of(name: &str, depth: u32) -> usize {
    if depth == 0 {
        return 0;
    }
    let d = Md5::digest(name.as_bytes());
    let v = msync_hash::u64_prefix_le(&d);
    (v >> (64 - depth)) as usize
}

/// The full tree: `levels[0]` is the root level (1 node), the last level
/// has `2^depth` leaf-bucket hashes. Bucket contents are hashed in
/// sorted-name order; empty buckets hash a fixed tag.
struct Tree {
    levels: Vec<Vec<[u8; 16]>>,
    /// Sorted items per leaf bucket.
    buckets: Vec<Vec<Item>>,
}

fn build_tree(items: &[Item], depth: u32) -> Tree {
    let n_buckets = 1usize << depth;
    let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); n_buckets];
    for item in items {
        buckets[bucket_of(&item.name, depth)].push(item.clone());
    }
    for b in buckets.iter_mut() {
        b.sort_by(|a, c| a.name.cmp(&c.name));
    }
    let mut level: Vec<[u8; 16]> = buckets
        .iter()
        .map(|b| {
            let mut h = Md5::new();
            h.update(b"leaf");
            for item in b {
                h.update(item.name.as_bytes());
                h.update(&[0]);
                h.update(&item.fp.0);
            }
            h.finish()
        })
        .collect();
    let mut levels = vec![level.clone()];
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| {
                let mut h = Md5::new();
                h.update(b"node");
                h.update(&pair[0]);
                h.update(&pair[1]);
                h.finish()
            })
            .collect();
        levels.push(level.clone());
    }
    levels.reverse(); // root first
    Tree { levels, buckets }
}

/// Run the Merkle-difference protocol between `client` and `server`
/// item lists (the depth is negotiated from the larger side).
pub fn reconcile(client: &[Item], server: &[Item]) -> ReconOutcome {
    let depth = depth_for(client.len().max(server.len()));
    let ct = build_tree(client, depth);
    let st = build_tree(server, depth);

    let mut c2s = 0u64;
    let mut s2c = 0u64;
    let mut roundtrips = 0u32;

    // Root exchange (client announces depth + root).
    c2s += 1 + NODE_HASH_BYTES as u64;
    roundtrips += 1;
    if ct.levels[0][0] == st.levels[0][0] {
        s2c += 1; // "identical"
        return ReconOutcome { differing: Vec::new(), c2s, s2c, roundtrips };
    }
    s2c += 1;

    // Walk level by level: the client sends both child hashes of every
    // open node; the server answers a 2-bit mask of which differ.
    let mut open: Vec<usize> = vec![0]; // node indices at current level
    for level in 1..ct.levels.len() {
        let mut next_open = Vec::new();
        c2s += (open.len() * 2 * NODE_HASH_BYTES) as u64;
        s2c += (open.len() as u64 * 2).div_ceil(8);
        roundtrips += 1;
        for &node in &open {
            for child in [2 * node, 2 * node + 1] {
                if ct.levels[level][child] != st.levels[level][child] {
                    next_open.push(child);
                }
            }
        }
        open = next_open;
        if open.is_empty() {
            break;
        }
    }

    // Exchange the contents of differing leaf buckets.
    let mut differing = Vec::new();
    for &leaf in &open {
        let cb = &ct.buckets[leaf];
        let sb = &st.buckets[leaf];
        for item in cb {
            c2s += item.name.len() as u64 + 16 + 1;
        }
        for item in sb {
            // Server answers with its entries for the bucket (names the
            // client lacks or whose fingerprints differ are derivable
            // from this; charged in full for honesty).
            s2c += item.name.len() as u64 + 16 + 1;
        }
        differing.extend(diff_names(cb, sb));
    }
    roundtrips += 1;
    differing.sort();
    differing.dedup();
    ReconOutcome { differing, c2s, s2c, roundtrips }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat_exchange;
    use crate::testutil::corpus;

    #[test]
    fn finds_exactly_the_differences() {
        let (a, b, expect) = corpus(300, &[5, 123, 250], &[40], &[270]);
        let out = reconcile(&a, &b);
        assert_eq!(out.differing, expect);
    }

    #[test]
    fn identical_collections_cost_one_hash() {
        let (a, b, _) = corpus(500, &[], &[], &[]);
        let out = reconcile(&a, &b);
        assert!(out.differing.is_empty());
        assert!(out.c2s + out.s2c < 16);
        assert_eq!(out.roundtrips, 1);
    }

    #[test]
    fn beats_flat_exchange_when_little_changed() {
        let (a, b, _) = corpus(2_000, &[17, 900], &[], &[]);
        let merkle = reconcile(&a, &b);
        let flat = flat_exchange(&a, &b);
        assert_eq!(merkle.differing, flat.differing);
        assert!(
            (merkle.c2s + merkle.s2c) * 5 < flat.c2s + flat.s2c,
            "merkle {} vs flat {}",
            merkle.c2s + merkle.s2c,
            flat.c2s + flat.s2c
        );
    }

    #[test]
    fn degrades_gracefully_when_everything_changed() {
        let all: Vec<usize> = (0..128).collect();
        let (a, b, expect) = corpus(128, &all, &[], &[]);
        let out = reconcile(&a, &b);
        assert_eq!(out.differing, expect);
        let flat = flat_exchange(&a, &b);
        // Walking the whole tree costs more than flat, but bounded.
        assert!(out.c2s + out.s2c < (flat.c2s + flat.s2c) * 4);
    }

    #[test]
    fn empty_and_singleton() {
        let (a, b, expect) = corpus(1, &[0], &[], &[]);
        assert_eq!(reconcile(&a, &b).differing, expect);
        let out = reconcile(&[], &[]);
        assert!(out.differing.is_empty());
    }

    #[test]
    fn one_side_empty() {
        let (a, _, _) = corpus(50, &[], &[], &[]);
        let out = reconcile(&a, &[]);
        assert_eq!(out.differing.len(), 50);
    }
}
