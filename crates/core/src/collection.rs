//! Collection synchronization — the paper's target workload.
//!
//! "We study the problem of maintaining large replicated collections of
//! files" (§1): a client mirrors thousands of files (web pages, a source
//! tree) and periodically updates them all. The wire schedule lives in
//! [`crate::pipeline`]:
//!
//! * file names are exchanged once, as sorted rosters, so both sides
//!   agree which files are new, deleted, or shared,
//! * unchanged files are skipped after the strong-fingerprint exchange
//!   (handled inside each session),
//! * protocol rounds are batched across files, so the *roundtrip* count
//!   is the maximum any single file needs, not the sum — the paper's
//!   "the roundtrip latencies are not incurred for each file since many
//!   files can be processed simultaneously".
//!
//! This module holds the collection types and
//! [`sync_collection_with`], which reconciles changed files first.

use crate::config::ProtocolConfig;
use crate::pipeline::sync_in_process;
use crate::session::SyncError;
use crate::stats::SyncStats;
use msync_protocol::{Direction, Phase, TrafficStats};
use msync_trace::Recorder;

/// A named file in a collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// Collection-relative path.
    pub name: String,
    /// File contents.
    pub data: Vec<u8>,
}

impl FileEntry {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, data: impl Into<Vec<u8>>) -> Self {
        Self { name: name.into(), data: data.into() }
    }
}

/// A named file borrowed from wherever the caller keeps it: what the
/// sync machines read, so a sync never copies its inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRef<'a> {
    /// Collection-relative path.
    pub name: &'a str,
    /// File contents.
    pub data: &'a [u8],
}

impl<'a> From<&'a FileEntry> for FileRef<'a> {
    fn from(f: &'a FileEntry) -> Self {
        Self { name: &f.name, data: &f.data }
    }
}

/// Result of synchronizing a collection.
#[derive(Debug, Clone, Default)]
pub struct CollectionOutcome {
    /// The client's updated collection (exactly the server's).
    pub files: Vec<FileEntry>,
    /// Wire traffic of the whole sync: the roster exchange and every
    /// batch frame, framing included. `roundtrips` is the batched count.
    pub traffic: TrafficStats,
    /// Per-file statistics for files that ran the protocol; their
    /// `traffic` is the payload bytes of the file's own message parts.
    pub per_file: Vec<(String, SyncStats)>,
    /// Files skipped because their fingerprints matched.
    pub unchanged: usize,
    /// Files that existed only on the server (transferred whole).
    pub created: usize,
    /// Files that existed only on the client (deleted).
    pub deleted: usize,
    /// Files whose session fell back to a full transfer.
    pub fell_back: usize,
    /// Files confirmed complete by a resume offer (checkpoint or
    /// metadata cache) — they skipped their sessions entirely.
    pub resumed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::sync_collection;

    fn blob(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 56) as u8
            })
            .collect()
    }

    fn small_cfg() -> ProtocolConfig {
        ProtocolConfig {
            start_block: 1 << 12,
            min_block_global: 64,
            min_block_cont: 16,
            ..Default::default()
        }
    }

    #[test]
    fn mixed_collection_sync() {
        let shared_a = blob(5_000, 7);
        let mut shared_a_new = shared_a.clone();
        shared_a_new.splice(1_000..1_000, b"inserted".iter().copied());
        let untouched = blob(8_000, 9);
        let old = vec![
            FileEntry::new("a.txt", shared_a.clone()),
            FileEntry::new("same.txt", untouched.clone()),
            FileEntry::new("gone.txt", blob(2_000, 11)),
        ];
        let new = vec![
            FileEntry::new("a.txt", shared_a_new.clone()),
            FileEntry::new("same.txt", untouched.clone()),
            FileEntry::new("fresh.txt", blob(3_000, 13)),
        ];
        let out = sync_collection(&old, &new, &small_cfg()).unwrap();
        assert_eq!(out.files.len(), 3);
        // Output follows sorted-name order regardless of input order.
        let mut want: Vec<&FileEntry> = new.iter().collect();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        for (got, want) in out.files.iter().zip(want) {
            assert_eq!(got, want);
        }
        assert_eq!(out.unchanged, 1);
        assert_eq!(out.created, 1);
        assert_eq!(out.deleted, 1);
        // The changed file's cost must be far below retransmission.
        assert!(out.traffic.total_bytes() < 8_000 + shared_a_new.len() as u64);
    }

    #[test]
    fn outcome_is_independent_of_input_order() {
        let mk = |i: u64| FileEntry::new(format!("f{i}.txt"), blob(2_000 + i as usize * 37, i));
        let old: Vec<FileEntry> = (0..8).map(mk).collect();
        let mut new: Vec<FileEntry> = (2..10)
            .map(|i| {
                let mut f = mk(i);
                f.data.rotate_left(i as usize);
                f
            })
            .collect();
        let mut old_rev = old.clone();
        old_rev.reverse();
        let forward = sync_collection(&old, &new, &small_cfg()).unwrap();
        new.reverse();
        let backward = sync_collection(&old_rev, &new, &small_cfg()).unwrap();
        assert_eq!(forward.files, backward.files);
        assert_eq!(forward.traffic.total_bytes(), backward.traffic.total_bytes());
        assert_eq!(
            forward.per_file.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            backward.per_file.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn disjoint_name_sets_create_and_delete_everything() {
        let old = vec![
            FileEntry::new("only/mine-1", blob(1_500, 3)),
            FileEntry::new("only/mine-2", blob(1_500, 5)),
        ];
        let new = vec![
            FileEntry::new("theirs/b", blob(1_200, 17)),
            FileEntry::new("theirs/a", blob(1_200, 19)),
        ];
        let out = sync_collection(&old, &new, &small_cfg()).unwrap();
        assert_eq!(out.created, 2);
        assert_eq!(out.deleted, 2);
        assert_eq!(out.unchanged, 0);
        let names: Vec<&str> = out.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["theirs/a", "theirs/b"]);
        assert_eq!(out.files[0].data, new[1].data);
        assert_eq!(out.files[1].data, new[0].data);
    }

    #[test]
    fn empty_collections() {
        let out = sync_collection(&[], &[], &small_cfg()).unwrap();
        assert!(out.files.is_empty());
        assert_eq!(out.unchanged + out.created + out.deleted, 0);
    }

    #[test]
    fn roundtrips_batched_not_summed() {
        let mk = |seed| {
            let base = blob(4_000, seed);
            let mut updated = base.clone();
            updated[2_000] ^= 0xFF;
            (base, updated)
        };
        let (a_old, a_new) = mk(21);
        let (b_old, b_new) = mk(23);
        let (a_old, a_new) = (FileEntry::new("a", a_old), FileEntry::new("a", a_new));
        let (b_old, b_new) = (FileEntry::new("b", b_old), FileEntry::new("b", b_new));
        let rt = |old: &[FileEntry], new: &[FileEntry]| {
            sync_collection(old, new, &small_cfg()).unwrap().traffic.roundtrips
        };
        let (a, b) =
            (rt(&[a_old.clone()], &[a_new.clone()]), rt(&[b_old.clone()], &[b_new.clone()]));
        assert_eq!(rt(&[a_old, b_old], &[a_new, b_new]), a.max(b));
    }
}

/// How the two sides identify changed files before any per-file session
/// runs (paper §4's related-work problem; see `msync-recon`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconStrategy {
    /// Ship every (name, fingerprint) pair — the paper's choice,
    /// "efficient enough for our data sets". Linear in collection size.
    Flat,
    /// Merkle-difference walk: `O(d·log(n/d))` hashes for `d` changes.
    Merkle,
    /// Madej-style adaptive group testing over fingerprint groups.
    GroupTesting,
}

/// Collection sync with an explicit change-identification phase: the
/// reconciliation runs first (its bytes charged to setup), and only the
/// differing files then sync, as one collection. With few changes in a
/// large collection, [`ReconStrategy::Merkle`] or
/// [`ReconStrategy::GroupTesting`] cut the setup cost from `O(n)` to
/// `O(d·log n)`.
///
/// Unlike [`sync_collection`](crate::sync_collection), unchanged files
/// cost nothing beyond the reconciliation: they never enter the
/// roster exchange.
pub fn sync_collection_with(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    strategy: ReconStrategy,
) -> Result<CollectionOutcome, SyncError> {
    use msync_recon as recon;

    let items = |files: &[FileEntry]| -> Vec<recon::Item> {
        let mut v: Vec<recon::Item> = files
            .iter()
            .map(|f| recon::Item {
                name: f.name.clone(),
                fp: msync_hash::file_fingerprint(&f.data),
            })
            .collect();
        recon::canonicalize(&mut v);
        v
    };
    let rec = match strategy {
        ReconStrategy::Flat => recon::flat_exchange(&items(old), &items(new)),
        ReconStrategy::Merkle => recon::merkle::reconcile(&items(old), &items(new)),
        ReconStrategy::GroupTesting => recon::group_testing::reconcile(&items(old), &items(new)),
    };
    let differing: std::collections::HashSet<&str> =
        rec.differing.iter().map(String::as_str).collect();
    fn refs<'a>(files: &'a [FileEntry], keep: impl Fn(&str) -> bool) -> Vec<FileRef<'a>> {
        files.iter().filter(|f| keep(&f.name)).map(FileRef::from).collect()
    }
    let new_names: std::collections::HashSet<&str> = new.iter().map(|f| f.name.as_str()).collect();
    // Files only the client has are deleted locally; they never sync.
    let old_refs = refs(old, |name| differing.contains(name) && new_names.contains(name));
    let new_refs = refs(new, |name| differing.contains(name));
    let mut out = sync_in_process(old_refs, &new_refs, cfg, &Recorder::off())?;

    let mut traffic = TrafficStats::new();
    traffic.record(Direction::ClientToServer, Phase::Setup, rec.c2s);
    traffic.record(Direction::ServerToClient, Phase::Setup, rec.s2c);
    traffic.merge(&out.traffic);
    traffic.roundtrips = rec.roundtrips + out.traffic.roundtrips;
    out.traffic = traffic;
    // Reconciliation proved every other file unchanged.
    out.files.extend(new.iter().filter(|f| !differing.contains(f.name.as_str())).cloned());
    out.files.sort_by(|a, b| a.name.cmp(&b.name));
    out.unchanged = new.len() - out.per_file.len();
    out.deleted = old.iter().filter(|f| !new_names.contains(f.name.as_str())).count();
    Ok(out)
}

#[cfg(test)]
mod recon_tests {
    use super::*;

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

    fn make(n: usize, changed: &[usize]) -> (Vec<FileEntry>, Vec<FileEntry>) {
        let mut old = Vec::new();
        let mut new = Vec::new();
        for i in 0..n {
            let base = blob(3_000, 900 + i as u64);
            old.push(FileEntry::new(format!("f{i:04}"), base.clone()));
            let data = if changed.contains(&i) {
                let mut d = base;
                d[1_500] ^= 0xFF;
                d
            } else {
                base
            };
            new.push(FileEntry::new(format!("f{i:04}"), data));
        }
        (old, new)
    }

    #[test]
    fn all_strategies_reconstruct_identically() {
        let (old, new) = make(40, &[3, 17, 31]);
        let cfg = ProtocolConfig { start_block: 1 << 11, ..Default::default() };
        for strategy in [ReconStrategy::Flat, ReconStrategy::Merkle, ReconStrategy::GroupTesting] {
            let out = sync_collection_with(&old, &new, &cfg, strategy).unwrap();
            assert_eq!(out.files.len(), 40);
            for (got, want) in out.files.iter().zip(&new) {
                assert_eq!(got.data, want.data, "{strategy:?}: {}", want.name);
            }
            assert_eq!(out.unchanged, 37, "{strategy:?}");
        }
    }

    #[test]
    fn merkle_setup_beats_flat_on_sparse_changes() {
        let (old, new) = make(300, &[123]);
        let cfg = ProtocolConfig { start_block: 1 << 11, ..Default::default() };
        let flat = sync_collection_with(&old, &new, &cfg, ReconStrategy::Flat).unwrap();
        let merkle = sync_collection_with(&old, &new, &cfg, ReconStrategy::Merkle).unwrap();
        let setup =
            |o: &CollectionOutcome| o.traffic.c2s(Phase::Setup) + o.traffic.s2c(Phase::Setup);
        assert!(
            setup(&merkle) * 3 < setup(&flat),
            "merkle setup {} vs flat {}",
            setup(&merkle),
            setup(&flat)
        );
        assert!(merkle.traffic.total_bytes() < flat.traffic.total_bytes());
    }
}
