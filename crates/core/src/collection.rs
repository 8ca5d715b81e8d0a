//! Collection synchronization — the paper's target workload.
//!
//! "We study the problem of maintaining large replicated collections of
//! files" (§1): a client mirrors thousands of files (web pages, a source
//! tree) and periodically updates them all. The wire schedule lives in
//! [`crate::pipeline`]:
//!
//! * the server's roster crosses once, up front: every name with its
//!   length and the first bytes of its strong 16-byte fingerprint, so
//!   the client settles which files are new, deleted, unchanged or
//!   changed before any session opens — the unchanged ones confirmed by
//!   one group hash in the first exchange — and unchanged files cost
//!   nothing more,
//! * protocol rounds are batched across files, so the *roundtrip* count
//!   is the maximum any single file needs, not the sum — the paper's
//!   "the roundtrip latencies are not incurred for each file since many
//!   files can be processed simultaneously".
//!
//! This module holds the collection types.

use crate::stats::SyncStats;
use msync_protocol::TrafficStats;

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
    /// Wire traffic of the whole sync: the opener, the roster and every
    /// batch frame, framing included. `roundtrips` is the batched count.
    pub traffic: TrafficStats,
    /// Per-file statistics in roster order; their `traffic` is the
    /// payload bytes of the file's own message parts, zero for a file
    /// the roster settled unchanged.
    pub per_file: Vec<(String, SyncStats)>,
    /// Files settled by the roster because their fingerprints matched.
    pub unchanged: usize,
    /// Files that existed only on the server (transferred whole).
    pub created: usize,
    /// Files that existed only on the client (deleted).
    pub deleted: usize,
    /// Files whose session fell back to a full transfer.
    pub fell_back: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
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
