//! Adaptive parameter selection (paper §7: "ideally, such a tool would
//! be adaptive and thus choose the best set of parameters and number of
//! roundtrips based on the characteristics of the data set and
//! communication link").
//!
//! Strategy, in the spirit the paper sketches:
//!
//! 1. **Static sizing** — the starting block size is fitted to the file
//!    (a power of two around an eighth of its size, capped at 2¹⁵), so
//!    small files skip the rounds whose single block can never match a
//!    changed file, and the recursion depth is tuned to file size.
//! 2. **Probe-and-commit per collection** — the first few *changed*
//!    files of a collection are synchronized under each candidate
//!    configuration; the cheapest wins and is used for the rest. The
//!    candidates span the trade-off the evaluation mapped out: deep
//!    recursion + continuation (similar files), the balanced default,
//!    and a shallow cheap-map variant (heavily-changed files).

use crate::collection::{CollectionOutcome, FileEntry};
use crate::config::{ProtocolConfig, VerifyStrategy};
use crate::pipeline::sync_collection;
use crate::session::{sync_file, SyncError, SyncOutcome};

/// Fit the starting block size (and with it the recursion depth) to a
/// file of `len` bytes.
pub fn fitted_start_block(len: usize) -> usize {
    // Aim for ~8 top-level blocks, clamped to sane protocol bounds.
    let target = (len / 8).max(512);
    let fitted = target.next_power_of_two();
    fitted.clamp(512, 1 << 15)
}

/// A configuration with its start block fitted to the given file size.
pub fn fitted_config(base: &ProtocolConfig, file_len: usize) -> ProtocolConfig {
    let start_block = fitted_start_block(file_len);
    ProtocolConfig {
        start_block,
        min_block_global: base.min_block_global.min(start_block),
        min_block_cont: base.min_block_cont.min(start_block),
        ..base.clone()
    }
}

/// Synchronize one file with the start block fitted to its size.
pub fn sync_file_adaptive(
    old: &[u8],
    new: &[u8],
    base: &ProtocolConfig,
) -> Result<SyncOutcome, SyncError> {
    let cfg = fitted_config(base, old.len().max(new.len()));
    sync_file(old, new, &cfg)
}

/// The candidate set the collection-level probe chooses from.
pub fn candidate_configs() -> Vec<(&'static str, ProtocolConfig)> {
    let deep = ProtocolConfig {
        min_block_global: 64,
        min_block_cont: 8,
        cont_bits: 3,
        ..ProtocolConfig::default()
    };
    let shallow = ProtocolConfig {
        min_block_global: 512,
        min_block_cont: 64,
        verify: VerifyStrategy::PerCandidate { bits: 20 },
        ..ProtocolConfig::default()
    };
    vec![("deep", deep), ("balanced", ProtocolConfig::default()), ("shallow", shallow)]
}

/// Outcome of an adaptive collection sync.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// The underlying collection outcome (with the winning config).
    pub outcome: CollectionOutcome,
    /// Name of the configuration the probe chose.
    pub chosen: &'static str,
    /// Bytes spent probing (already included in `outcome.traffic`? No —
    /// probing happens on real files, so the probe bytes are the real
    /// sync cost of those files; this counts the *extra* bytes spent on
    /// the configurations that lost).
    pub probe_overhead: u64,
}

/// Synchronize a collection, choosing the configuration by probing the
/// first `probe_files` changed files with every candidate.
///
/// The probe files are genuinely synchronized once per candidate; the
/// losing candidates' traffic is accounted as `probe_overhead` (a real
/// deployment would interleave candidates across different files
/// instead — we keep the accounting honest and pessimistic).
pub fn sync_collection_adaptive(
    old: &[FileEntry],
    new: &[FileEntry],
    probe_files: usize,
) -> Result<AdaptiveOutcome, SyncError> {
    let old_by_name: std::collections::HashMap<&str, &FileEntry> =
        old.iter().map(|f| (f.name.as_str(), f)).collect();
    let probes: Vec<(&[u8], &[u8])> = new
        .iter()
        .filter_map(|nf| {
            let of = old_by_name.get(nf.name.as_str())?;
            (of.data != nf.data).then_some((of.data.as_slice(), nf.data.as_slice()))
        })
        .take(probe_files)
        .collect();

    let candidates = candidate_configs();
    let (chosen, probe_overhead) = if probes.is_empty() {
        ("balanced", 0)
    } else {
        let mut best: (&'static str, u64) = ("balanced", u64::MAX);
        let mut total_probe = 0u64;
        for (name, cfg) in &candidates {
            let mut bytes = 0u64;
            for (o, n) in &probes {
                let out = sync_file_adaptive(o, n, cfg)?;
                debug_assert_eq!(out.reconstructed, *n);
                bytes += out.stats.total_bytes();
            }
            total_probe += bytes;
            if bytes < best.1 {
                best = (name, bytes);
            }
        }
        // The winner's probe bytes are real sync work it would have done
        // anyway; only the losers' bytes are overhead.
        (best.0, total_probe.saturating_sub(best.1))
    };

    let cfg = candidates
        .iter()
        .find(|(n, _)| *n == chosen)
        .map_or_else(ProtocolConfig::default, |(_, c)| c.clone());
    let outcome = sync_collection_fitted(old, new, &cfg)?;
    Ok(AdaptiveOutcome { outcome, chosen, probe_overhead })
}

/// Collection sync with per-file start-block fitting.
fn sync_collection_fitted(
    old: &[FileEntry],
    new: &[FileEntry],
    base: &ProtocolConfig,
) -> Result<CollectionOutcome, SyncError> {
    // Group files by fitted start block and sync each group with its
    // fitted configuration, merging the outcomes.
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<usize, (Vec<FileEntry>, Vec<FileEntry>)> = BTreeMap::new();
    let old_by_name: std::collections::HashMap<&str, &FileEntry> =
        old.iter().map(|f| (f.name.as_str(), f)).collect();
    for nf in new {
        let of = old_by_name.get(nf.name.as_str());
        let len = nf.data.len().max(of.map_or(0, |f| f.data.len()));
        let bucket = groups.entry(fitted_start_block(len)).or_default();
        if let Some(of) = of {
            bucket.0.push((*of).clone());
        }
        bucket.1.push(nf.clone());
    }
    // Deleted files join the first group so the name exchange sees them.
    let new_names: std::collections::HashSet<&str> = new.iter().map(|f| f.name.as_str()).collect();
    let deleted: Vec<FileEntry> =
        old.iter().filter(|f| !new_names.contains(f.name.as_str())).cloned().collect();

    let mut merged: Option<CollectionOutcome> = None;
    let mut first = true;
    for (start_block, (mut g_old, g_new)) in groups {
        if first {
            g_old.extend(deleted.iter().cloned());
            first = false;
        }
        let cfg = ProtocolConfig {
            start_block,
            min_block_global: base.min_block_global.min(start_block),
            min_block_cont: base.min_block_cont.min(start_block),
            ..base.clone()
        };
        let out = sync_collection(&g_old, &g_new, &cfg)?;
        merged = Some(match merged {
            None => out,
            Some(mut acc) => {
                acc.files.extend(out.files);
                acc.traffic.merge(&out.traffic);
                acc.per_file.extend(out.per_file);
                acc.unchanged += out.unchanged;
                acc.created += out.created;
                acc.deleted += out.deleted;
                acc.fell_back += out.fell_back;
                acc.resumed += out.resumed;
                acc
            }
        });
    }
    Ok(merged.unwrap_or_else(|| CollectionOutcome {
        files: Vec::new(),
        traffic: msync_protocol::TrafficStats::new(),
        per_file: Vec::new(),
        unchanged: 0,
        created: 0,
        // `new` was empty so no group ran; every old file is a deletion.
        deleted: deleted.len(),
        fell_back: 0,
        resumed: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_block_scaling() {
        assert_eq!(fitted_start_block(0), 512);
        assert_eq!(fitted_start_block(4_096), 512);
        assert_eq!(fitted_start_block(15_000), 2_048);
        assert_eq!(fitted_start_block(100_000), 16_384);
        assert_eq!(fitted_start_block(10_000_000), 1 << 15);
    }

    fn blob(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(2).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn adaptive_file_sync_exact_and_cheaper_on_small_files() {
        let old = blob(6_000, 1);
        let mut new = old.clone();
        new[3_000] ^= 0xFF;
        let base = ProtocolConfig::default();
        let fitted = sync_file_adaptive(&old, &new, &base).unwrap();
        assert_eq!(fitted.reconstructed, new);
        let unfitted = sync_file(&old, &new, &base).unwrap();
        // Fitting the start block cannot be much worse and is usually
        // cheaper (fewer single-block no-op rounds).
        assert!(fitted.stats.total_bytes() <= unfitted.stats.total_bytes() + 16);
        assert!(fitted.stats.traffic.roundtrips <= unfitted.stats.traffic.roundtrips);
    }

    #[test]
    fn adaptive_collection_chooses_and_reconstructs() {
        let mut old_files = Vec::new();
        let mut new_files = Vec::new();
        for i in 0..6u64 {
            let base = blob(8_000, 10 + i);
            let mut updated = base.clone();
            if i % 2 == 0 {
                updated.splice(4_000..4_000, blob(40, 100 + i));
            }
            old_files.push(FileEntry::new(format!("f{i}"), base));
            new_files.push(FileEntry::new(format!("f{i}"), updated));
        }
        let out = sync_collection_adaptive(&old_files, &new_files, 2).unwrap();
        assert_eq!(out.outcome.files.len(), 6);
        let by_name: std::collections::HashMap<_, _> =
            out.outcome.files.iter().map(|f| (f.name.clone(), f.data.clone())).collect();
        for want in &new_files {
            assert_eq!(by_name[&want.name], want.data, "mismatch in {}", want.name);
        }
        assert!(["deep", "balanced", "shallow"].contains(&out.chosen));
        assert!(out.probe_overhead > 0);
    }

    #[test]
    fn adaptive_collection_empty_and_unchanged() {
        let out = sync_collection_adaptive(&[], &[], 3).unwrap();
        assert!(out.outcome.files.is_empty());
        assert_eq!(out.chosen, "balanced");
        assert_eq!(out.probe_overhead, 0);

        let files = vec![FileEntry::new("a", blob(2_000, 42))];
        let out = sync_collection_adaptive(&files, &files, 3).unwrap();
        assert_eq!(out.outcome.files, files);
        assert_eq!(out.probe_overhead, 0); // nothing changed → no probe
    }

    #[test]
    fn all_files_deleted() {
        let old_files = vec![FileEntry::new("gone", blob(2_000, 31))];
        let out = sync_collection_adaptive(&old_files, &[], 2).unwrap();
        assert!(out.outcome.files.is_empty());
        assert_eq!(out.outcome.deleted, 1);
    }

    #[test]
    fn deleted_files_counted_once() {
        let old_files =
            vec![FileEntry::new("keep", blob(3_000, 7)), FileEntry::new("gone", blob(3_000, 8))];
        let new_files = vec![FileEntry::new("keep", blob(3_000, 7))];
        let out = sync_collection_adaptive(&old_files, &new_files, 2).unwrap();
        assert_eq!(out.outcome.deleted, 1);
        assert_eq!(out.outcome.files.len(), 1);
    }
}
