//! Changed-file identification.
//!
//! Before any file synchronizes, the two sides must agree on *which*
//! files differ. The paper (§4) notes a line of related work on exactly
//! this — "the problem of efficiently identifying files that have
//! changed in scenarios where almost all objects are unchanged" (Madej's
//! group-testing approach \[27\], Abdel-Ghaffar & El Abbadi's optimal
//! strategies \[1\], Metzner's hash trees \[28,29\]) — and sidesteps it with
//! a flat per-file fingerprint exchange ("we do not focus on this aspect
//! and instead use a fingerprint for each file as this is efficient
//! enough for our data sets").
//!
//! This crate builds that substrate properly, so the collection layer
//! can beat the flat exchange when almost nothing changed:
//!
//! * [`merkle`] — a hash tree over the sorted (name, fingerprint) pairs;
//!   both sides walk it top-down, descending only into subtrees whose
//!   hashes differ. Cost ≈ `O(d · log(n/d))` hashes for `d` changed
//!   files out of `n` (Metzner's remote file comparison).
//! * [`group_testing`] — Madej-style adaptive group testing: one hash
//!   over the concatenated fingerprints of a group answers "did anything
//!   in this group change?"; failing groups split. Equivalent asymptotic
//!   cost with simpler state, at more roundtrips.
//!
//! Both protocols are *sound* (never miss a changed file) up to the
//! collision probability of the 16-byte fingerprints, and are measured
//! byte-for-byte like everything else in this workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod group_testing;
pub mod merkle;

use msync_hash::Fingerprint;

/// One file's identity in a reconciliation: its name and content
/// fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Collection-relative path.
    pub name: String,
    /// 16-byte content fingerprint.
    pub fp: Fingerprint,
}

/// Result of a reconciliation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconOutcome {
    /// Names present on both sides with differing fingerprints, plus
    /// names present on only one side — i.e. everything the collection
    /// layer must act on. Sorted.
    pub differing: Vec<String>,
    /// Bytes the initiator sent.
    pub c2s: u64,
    /// Bytes the responder sent.
    pub s2c: u64,
    /// Communication roundtrips used.
    pub roundtrips: u32,
}

/// The flat baseline the paper uses: the client ships every (name, fp)
/// pair; the server answers with the differing names it can compute
/// locally (charged as a bitmap).
pub fn flat_exchange(client: &[Item], server: &[Item]) -> ReconOutcome {
    let mut c2s = 0u64;
    for item in client {
        c2s += item.name.len() as u64 + 16 + 1;
    }
    let differing = diff_names(client, server);
    // Server reply: 1 bit per client file + names only the server has.
    let mut s2c = (client.len() as u64).div_ceil(8) + 1;
    let client_names: std::collections::HashSet<&str> =
        client.iter().map(|i| i.name.as_str()).collect();
    for item in server {
        if !client_names.contains(item.name.as_str()) {
            s2c += item.name.len() as u64 + 1;
        }
    }
    ReconOutcome { differing, c2s, s2c, roundtrips: 1 }
}

/// Ground truth both protocols must reproduce (used internally and by
/// tests): names whose fingerprints differ or that exist on one side.
pub fn diff_names(a: &[Item], b: &[Item]) -> Vec<String> {
    use std::collections::HashMap;
    let bm: HashMap<&str, Fingerprint> = b.iter().map(|i| (i.name.as_str(), i.fp)).collect();
    let mut out: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for i in a {
        seen.insert(i.name.as_str());
        match bm.get(i.name.as_str()) {
            Some(fp) if *fp == i.fp => {}
            _ => out.push(i.name.clone()),
        }
    }
    for i in b {
        if !seen.contains(i.name.as_str()) {
            out.push(i.name.clone());
        }
    }
    out.sort();
    out
}

/// Canonicalize: sort by name, so both sides agree on positions.
pub fn canonicalize(items: &mut [Item]) {
    items.sort_by(|a, b| a.name.cmp(&b.name));
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use msync_hash::file_fingerprint;

    /// `n` files; those with index in `changed` differ between the two
    /// sides; indices in `only_a`/`only_b` exist on one side only.
    pub fn corpus(
        n: usize,
        changed: &[usize],
        only_a: &[usize],
        only_b: &[usize],
    ) -> (Vec<Item>, Vec<Item>, Vec<String>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut expect = Vec::new();
        for i in 0..n {
            let name = format!("dir{:02}/file_{i:05}.dat", i % 37);
            let base = file_fingerprint(format!("content-{i}").as_bytes());
            let in_a = !only_b.contains(&i);
            let in_b = !only_a.contains(&i);
            if in_a {
                a.push(Item { name: name.clone(), fp: base });
            }
            if in_b {
                let fp = if changed.contains(&i) {
                    file_fingerprint(format!("content-{i}-v2").as_bytes())
                } else {
                    base
                };
                b.push(Item { name: name.clone(), fp });
            }
            if changed.contains(&i) && in_a && in_b || only_a.contains(&i) || only_b.contains(&i) {
                expect.push(name);
            }
        }
        expect.sort();
        canonicalize(&mut a);
        canonicalize(&mut b);
        (a, b, expect)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::corpus;
    use super::*;

    #[test]
    fn flat_exchange_finds_everything() {
        let (a, b, expect) = corpus(200, &[3, 77, 150], &[10], &[190]);
        let out = flat_exchange(&a, &b);
        assert_eq!(out.differing, expect);
        // Flat cost is linear in n regardless of d.
        assert!(out.c2s > 200 * 17);
    }

    #[test]
    fn diff_names_symmetric_cases() {
        let (a, b, expect) = corpus(10, &[], &[], &[]);
        assert!(expect.is_empty());
        assert!(diff_names(&a, &b).is_empty());
        let (a, b, expect) = corpus(10, &[0, 9], &[], &[]);
        assert_eq!(diff_names(&a, &b), expect);
    }
}
