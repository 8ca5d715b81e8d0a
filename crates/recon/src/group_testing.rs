//! Group-testing reconciliation (Madej \[27\]: "an application of group
//! testing to the file comparison problem").
//!
//! The same question as the Merkle walk — *which files changed?* — posed
//! as Dorfman group testing: a single short hash over the concatenated
//! fingerprints of a *group* of files answers "did anything in this
//! group change?". Groups that fail split in half adaptively. Compared
//! to the Merkle walk, the probes are cheaper (a truncated hash plus a
//! one-bit answer instead of two child hashes) but nothing is
//! precomputed, so the responder hashes group contents on demand.
//!
//! Groups are ranges of the same hashed bucket space the Merkle tree
//! uses, so differing name sets on the two sides stay aligned.

use crate::{diff_names, Item, ReconOutcome};
use msync_hash::Md5;

/// Bits per group-test hash. 40 bits keeps the false-"unchanged"
/// probability per test below 10⁻¹², amply safe under the final
/// per-file fingerprint checks downstream.
pub const TEST_BITS: u32 = 40;

fn bucketize(items: &[Item], depth: u32) -> Vec<Vec<Item>> {
    let mut buckets: Vec<Vec<Item>> = vec![Vec::new(); 1usize << depth];
    for item in items {
        let d = Md5::digest(item.name.as_bytes());
        let v = msync_hash::u64_prefix_le(&d);
        let idx = if depth == 0 { 0 } else { (v >> (64 - depth)) as usize };
        buckets[idx].push(item.clone());
    }
    for b in buckets.iter_mut() {
        b.sort_by(|a, c| a.name.cmp(&c.name));
    }
    buckets
}

fn range_hash(buckets: &[Vec<Item>], lo: usize, hi: usize) -> u64 {
    let mut h = Md5::new();
    for bucket in &buckets[lo..hi] {
        for item in bucket {
            h.update(item.name.as_bytes());
            h.update(&[0]);
            h.update(&item.fp.0);
        }
        h.update(&[1]); // bucket separator
    }
    let d = h.finish();
    msync_hash::u64_prefix_le(&d) & ((1u64 << TEST_BITS) - 1)
}

/// Run adaptive group-testing reconciliation.
pub fn reconcile(client: &[Item], server: &[Item]) -> ReconOutcome {
    let depth = crate::merkle::depth_for(client.len().max(server.len()));
    let cb = bucketize(client, depth);
    let sb = bucketize(server, depth);
    let n = cb.len();

    let mut c2s = 0u64;
    let mut s2c = 0u64;
    let mut roundtrips = 0u32;

    // Waves of range tests, breadth-first: the client sends one hash per
    // open range; the server answers one bit per range.
    let mut open: Vec<(usize, usize)> = vec![(0, n)];
    let mut leaf_ranges: Vec<(usize, usize)> = Vec::new();
    while !open.is_empty() {
        roundtrips += 1;
        c2s += 1 + ((open.len() as u64) * TEST_BITS as u64).div_ceil(8);
        s2c += (open.len() as u64).div_ceil(8);
        let mut next = Vec::new();
        for &(lo, hi) in &open {
            let differs = range_hash(&cb, lo, hi) != range_hash(&sb, lo, hi);
            if !differs {
                continue;
            }
            if hi - lo == 1 {
                leaf_ranges.push((lo, hi));
            } else {
                let mid = lo + (hi - lo) / 2;
                next.push((lo, mid));
                next.push((mid, hi));
            }
        }
        open = next;
    }

    // Exchange the differing buckets' contents.
    let mut differing = Vec::new();
    if !leaf_ranges.is_empty() {
        roundtrips += 1;
    }
    for &(lo, _) in &leaf_ranges {
        for item in &cb[lo] {
            c2s += item.name.len() as u64 + 16 + 1;
        }
        for item in &sb[lo] {
            s2c += item.name.len() as u64 + 16 + 1;
        }
        differing.extend(diff_names(&cb[lo], &sb[lo]));
    }
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
        let (a, b, expect) = corpus(257, &[0, 100, 256], &[13], &[200]);
        let out = reconcile(&a, &b);
        assert_eq!(out.differing, expect);
    }

    #[test]
    fn identical_collections_single_test() {
        let (a, b, _) = corpus(1_000, &[], &[], &[]);
        let out = reconcile(&a, &b);
        assert!(out.differing.is_empty());
        assert_eq!(out.roundtrips, 1);
        assert!(out.c2s + out.s2c < 16);
    }

    #[test]
    fn beats_flat_when_sparse_and_merkle_comparable() {
        let (a, b, _) = corpus(2_000, &[42], &[], &[]);
        let gt = reconcile(&a, &b);
        let flat = flat_exchange(&a, &b);
        let mk = crate::merkle::reconcile(&a, &b);
        assert_eq!(gt.differing, flat.differing);
        assert!((gt.c2s + gt.s2c) * 5 < flat.c2s + flat.s2c);
        // Same adaptive-splitting family: within 3x of each other.
        let (g, m) = (gt.c2s + gt.s2c, mk.c2s + mk.s2c);
        assert!(g < m * 3 && m < g * 3, "gt {g} vs merkle {m}");
    }

    #[test]
    fn cost_scales_with_changes_not_size() {
        let (a1, b1, _) = corpus(4_096, &[7], &[], &[]);
        let (a2, b2, _) = corpus(4_096, &[7, 100, 900, 2000, 3000, 4000], &[], &[]);
        let one = reconcile(&a1, &b1);
        let six = reconcile(&a2, &b2);
        let (c1, c6) = (one.c2s + one.s2c, six.c2s + six.s2c);
        assert!(c6 < c1 * 10, "six changes ({c6}) should cost < 10x one change ({c1})");
        assert!(c6 > c1, "more changes must cost more");
    }

    #[test]
    fn empty_inputs() {
        let out = reconcile(&[], &[]);
        assert!(out.differing.is_empty());
    }

    // --- salvage path: a failed group test converges by sub-group
    // retesting rather than giving up or re-probing the same range. ---

    #[test]
    fn failed_group_salvaged_by_subgroup_retesting() {
        // One changed file: the root test fails, and every wave after it
        // splits the one failed range in two, retests, and discards the
        // clean half. That walk takes exactly depth+1 probe waves plus
        // the final content exchange.
        let n = 1_024usize;
        let (a, b, expect) = corpus(n, &[500], &[], &[]);
        let depth = crate::merkle::depth_for(n);
        let out = reconcile(&a, &b);
        assert_eq!(out.differing, expect);
        assert_eq!(out.roundtrips, depth + 2, "depth+1 test waves + 1 exchange");
        // Pruning bound: after the root, each wave keeps at most the two
        // halves of the single failed range, so probe traffic is
        // O(depth), nowhere near the 2^depth of an unpruned sweep.
        let max_probe_bytes = u64::from(depth + 1) * (1 + 2 * u64::from(TEST_BITS).div_ceil(8));
        // The final exchange sends the failed bucket's full contents — the
        // changed file plus any same-bucket neighbors — so allow a small
        // bucket on top of the probe bytes. An unpruned sweep would probe
        // all 2^depth ranges (~10 KB here); this bound stays ~10x below it.
        let leaf_allowance = 16 * 64;
        assert!(
            out.c2s <= max_probe_bytes + leaf_allowance,
            "c2s {} exceeds pruned-walk bound {}",
            out.c2s,
            max_probe_bytes + leaf_allowance
        );
    }

    #[test]
    fn all_groups_fail_worst_case_converges() {
        // Every file differs: every group test at every level fails, so
        // the adaptive split visits the entire tree. The walk must still
        // terminate at the leaves and report every file exactly once.
        let n = 257usize;
        let changed: Vec<usize> = (0..n).collect();
        let (a, b, expect) = corpus(n, &changed, &[], &[]);
        assert_eq!(expect.len(), n);
        let depth = crate::merkle::depth_for(n);
        let out = reconcile(&a, &b);
        assert_eq!(out.differing, expect);
        assert_eq!(out.roundtrips, depth + 2, "full-tree walk still bottoms out at the leaves");
        // Worst case costs more than flat exchange (same contents moved,
        // plus all the probes that bought nothing) — the documented
        // trade-off of group testing under dense change.
        let flat = flat_exchange(&a, &b);
        assert_eq!(flat.differing, out.differing);
        assert!(
            out.c2s + out.s2c > flat.c2s + flat.s2c,
            "dense change: group testing {} should exceed flat {}",
            out.c2s + out.s2c,
            flat.c2s + flat.s2c
        );
    }

    #[test]
    fn half_failed_tree_only_walks_failed_subranges() {
        // Dense changes on one side of the bucket space, none elsewhere:
        // cost sits between the sparse and all-fail extremes.
        let n = 2_048usize;
        let sparse = {
            let (a, b, _) = corpus(n, &[3], &[], &[]);
            let o = reconcile(&a, &b);
            o.c2s + o.s2c
        };
        let dense = {
            let changed: Vec<usize> = (0..n).collect();
            let (a, b, _) = corpus(n, &changed, &[], &[]);
            let o = reconcile(&a, &b);
            o.c2s + o.s2c
        };
        let mixed = {
            let changed: Vec<usize> = (0..n / 8).collect();
            let (a, b, expect) = corpus(n, &changed, &[], &[]);
            let o = reconcile(&a, &b);
            assert_eq!(o.differing, expect);
            o.c2s + o.s2c
        };
        assert!(sparse < mixed && mixed < dense, "{sparse} < {mixed} < {dense} expected");
    }

    #[test]
    fn one_sided_files_survive_the_salvage_walk() {
        // Additions and deletions change the group hashes through the
        // bucket contents, so the split walk must surface them just like
        // fingerprint flips.
        let (a, b, expect) = corpus(512, &[100], &[7, 8], &[400]);
        let out = reconcile(&a, &b);
        assert_eq!(out.differing, expect);
        assert_eq!(out.differing.len(), 4);
    }
}
