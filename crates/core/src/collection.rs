//! Collection synchronization — the paper's target workload.
//!
//! "We study the problem of maintaining large replicated collections of
//! files" (§1): a client mirrors thousands of files (web pages, a source
//! tree) and periodically updates them all. Per file the cost is the
//! session cost of [`crate::session::sync_file`]; at the collection
//! level:
//!
//! * unchanged files are skipped after the strong-fingerprint exchange
//!   (handled inside each session),
//! * file names are exchanged once so both sides agree which files are
//!   new, deleted, or shared,
//! * protocol rounds are batched across files, so the *roundtrip* count
//!   is the maximum any single file needs, not the sum — the paper's
//!   "the roundtrip latencies are not incurred for each file since many
//!   files can be processed simultaneously".

use crate::config::ProtocolConfig;
use crate::session::{sync_file_with, SyncError, SyncOptions};
use crate::stats::SyncStats;
use msync_protocol::{frame_wire_size, Direction, Phase, TrafficStats};
use msync_trace::{DirTag, EventKind, PhaseTag, Recorder};

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

/// Result of synchronizing a collection.
#[derive(Debug, Clone, Default)]
pub struct CollectionOutcome {
    /// The client's updated collection (exactly the server's).
    pub files: Vec<FileEntry>,
    /// Merged traffic over all files plus the name exchange;
    /// `roundtrips` is the batched (maximum per-file) count.
    pub traffic: TrafficStats,
    /// Per-file session statistics for files that ran the protocol.
    pub per_file: Vec<(String, SyncStats)>,
    /// Files skipped because their fingerprints matched.
    pub unchanged: usize,
    /// Files that existed only on the server (transferred whole).
    pub created: usize,
    /// Created files served from a renamed old file (same content under
    /// a different name, detected by fingerprint — they cost a name
    /// reference instead of a transfer).
    pub renamed: usize,
    /// Files that existed only on the client (deleted).
    pub deleted: usize,
    /// Files whose session fell back to a full transfer.
    pub fell_back: usize,
    /// Files confirmed complete by a resume offer (checkpoint or
    /// metadata cache) — they skipped their sessions entirely.
    pub resumed: usize,
}

/// Wire bytes of the collection-level name exchange, `(c2s, s2c)`: the
/// client lists its file names; the server answers with the names to
/// create, one byte per name to delete, and a terminator. Every method
/// that synchronizes a directory pays this listing, so the paper
/// harness charges the baselines through this same function.
pub fn name_exchange_bytes(old_names: &[&str], new_names: &[&str]) -> (u64, u64) {
    let old_set: std::collections::HashSet<&str> = old_names.iter().copied().collect();
    let new_set: std::collections::HashSet<&str> = new_names.iter().copied().collect();
    let c2s = old_names.iter().map(|n| frame_wire_size(n.len())).sum::<u64>().max(1);
    let created: u64 =
        new_names.iter().filter(|n| !old_set.contains(*n)).map(|n| frame_wire_size(n.len())).sum();
    let deleted = old_names.iter().filter(|n| !new_set.contains(*n)).count() as u64;
    (c2s, created + deleted + 1)
}

/// Synchronize the client's `old` collection to the server's `new` one.
///
/// The name listings are exchanged in sorted order and the outcome's
/// `files`/`per_file` follow that sorted order, so the result is a pure
/// function of the two collections' *contents* — callers may present
/// their entries in any order (directory walks differ across
/// filesystems) and still get byte-identical outcomes.
pub fn sync_collection(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
) -> Result<CollectionOutcome, SyncError> {
    sync_collection_traced(old, new, cfg, &Recorder::off())
}

/// [`sync_collection`] with a trace [`Recorder`] attached.
///
/// Every byte charged to the outcome's `traffic` is mirrored by exactly
/// one `frame_send`/`frame_recv` trace event (the collection-level name
/// listings here, the per-session charges inside each file's driver), so
/// a journal's per-direction/per-phase byte sums reproduce the returned
/// [`TrafficStats`] exactly. File ids in events are indices into the
/// sorted-name order, matching the outcome's `files`/`per_file` order.
pub fn sync_collection_traced(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let mut new_sorted: Vec<&FileEntry> = new.iter().collect();
    new_sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let mut setup = TrafficStats::new();

    // Fingerprints travel inside each per-file session, so only the
    // name bytes are charged here.
    let old_names: Vec<&str> = old.iter().map(|f| f.name.as_str()).collect();
    let new_names: Vec<&str> = new.iter().map(|f| f.name.as_str()).collect();
    let (c2s_listing, s2c_listing) = name_exchange_bytes(&old_names, &new_names);
    setup.record(Direction::ClientToServer, Phase::Setup, c2s_listing);
    recorder.record(EventKind::FrameSend {
        dir: DirTag::C2s,
        phase: PhaseTag::Setup,
        bytes: c2s_listing,
    });
    setup.record(Direction::ServerToClient, Phase::Setup, s2c_listing);
    recorder.record(EventKind::FrameRecv {
        dir: DirTag::S2c,
        phase: PhaseTag::Setup,
        bytes: s2c_listing,
    });

    let new_names: std::collections::HashSet<&str> = new_names.into_iter().collect();
    let deleted = old_names.iter().filter(|name| !new_names.contains(*name)).count();

    let old_by_name: std::collections::HashMap<&str, &FileEntry> =
        old.iter().map(|f| (f.name.as_str(), f)).collect();
    // Rename detection: the client's name listing already travels with
    // per-file fingerprints inside the sessions, so the server can spot
    // a "new" file whose content equals an old file under another name
    // and answer with a base-file reference instead of a transfer. When
    // several old files share a fingerprint, the smallest name is the
    // base so the choice never depends on input order.
    let mut old_by_fp: std::collections::HashMap<msync_hash::Fingerprint, &FileEntry> =
        std::collections::HashMap::with_capacity(old.len());
    for f in old {
        let fp = msync_hash::file_fingerprint(&f.data);
        let slot = old_by_fp.entry(fp).or_insert(f);
        if f.name < slot.name {
            *slot = f;
        }
    }
    let mut unchanged = 0usize;
    let mut created = 0usize;
    let mut renamed = 0usize;
    let mut pairs = Vec::with_capacity(new.len());
    for nf in new_sorted {
        let base: &[u8] = if let Some(own) = old_by_name.get(nf.name.as_str()) {
            // Equal bytes mean equal fingerprints: that session ends at
            // the setup exchange without opening a round.
            unchanged += usize::from(own.data == nf.data);
            &own.data
        } else {
            // Renames are categorized as `created` (+`renamed`), not
            // `unchanged` — the categories must partition the files.
            created += 1;
            match old_by_fp.get(&msync_hash::file_fingerprint(&nf.data)) {
                Some(base) => {
                    // Rename: sync against the identical old file; the
                    // session's fingerprint exchange reduces it to ~20 B.
                    // Charge the base-name reference the server sends.
                    renamed += 1;
                    let base_ref = frame_wire_size(base.name.len());
                    setup.record(Direction::ServerToClient, Phase::Setup, base_ref);
                    recorder.record(EventKind::FrameRecv {
                        dir: DirTag::S2c,
                        phase: PhaseTag::Setup,
                        bytes: base_ref,
                    });
                    &base.data
                }
                None => &[],
            }
        };
        pairs.push((nf, Some(base)));
    }
    let mut out = sync_pairs(&pairs, setup, cfg, recorder)?;
    out.traffic.roundtrips = out.traffic.roundtrips.max(1) + 1; // +1 for the name exchange
    (out.unchanged, out.created, out.renamed, out.deleted) = (unchanged, created, renamed, deleted);
    Ok(out)
}

/// The per-file loop behind both lockstep collection drivers: one
/// [`sync_file_with`] session per `(server file, client bytes)` pair in
/// the order given (a pair's index is its trace file id), merged onto
/// the already-charged `setup` traffic. No client bytes means change
/// identification already proved the two copies identical: no session,
/// no cost. Fills `files`, `per_file`, `fell_back` and `traffic` (its
/// `roundtrips` the longest session's); the other counters are the
/// caller's.
fn sync_pairs(
    pairs: &[(&FileEntry, Option<&[u8]>)],
    setup: TrafficStats,
    cfg: &ProtocolConfig,
    recorder: &Recorder,
) -> Result<CollectionOutcome, SyncError> {
    let mut out = CollectionOutcome {
        files: Vec::with_capacity(pairs.len()),
        traffic: setup,
        ..CollectionOutcome::default()
    };
    for (file_id, &(nf, old_bytes)) in pairs.iter().enumerate() {
        let Some(old_bytes) = old_bytes else {
            out.files.push(nf.clone());
            continue;
        };
        let opts = SyncOptions { recorder: recorder.clone(), file_id: file_id as u64 };
        let outcome = sync_file_with(old_bytes, &nf.data, cfg, &opts)?;
        debug_assert_eq!(outcome.reconstructed, nf.data);
        out.fell_back += usize::from(outcome.fell_back);
        out.traffic.merge(&outcome.stats.traffic);
        out.files.push(FileEntry { name: nf.name.clone(), data: outcome.reconstructed });
        out.per_file.push((nf.name.clone(), outcome.stats));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(out.renamed, 0);
        let names: Vec<&str> = out.files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["theirs/a", "theirs/b"]);
        assert_eq!(out.files[0].data, new[1].data);
        assert_eq!(out.files[1].data, new[0].data);
    }

    #[test]
    fn rename_mixed_with_creates_and_deletes() {
        let kept = blob(6_000, 29);
        let moved = blob(9_000, 31);
        let old = vec![
            FileEntry::new("keep.txt", kept.clone()),
            FileEntry::new("before-rename.bin", moved.clone()),
            FileEntry::new("victim.txt", blob(500, 37)),
        ];
        let new = vec![
            FileEntry::new("after-rename.bin", moved.clone()),
            FileEntry::new("keep.txt", kept.clone()),
            FileEntry::new("extra.txt", blob(700, 43)),
        ];
        let out = sync_collection(&old, &new, &small_cfg()).unwrap();
        assert_eq!(out.renamed, 1);
        assert_eq!(out.created, 2); // rename counts as created + renamed
        assert_eq!(out.deleted, 2); // both vanished names, incl. the rename source
        assert_eq!(out.unchanged, 1);
        let by_name: std::collections::HashMap<&str, &[u8]> =
            out.files.iter().map(|f| (f.name.as_str(), f.data.as_slice())).collect();
        assert_eq!(by_name["after-rename.bin"], moved.as_slice());
        assert_eq!(by_name["keep.txt"], kept.as_slice());
    }

    #[test]
    fn rename_detected_by_fingerprint() {
        let content = blob(20_000, 41);
        let old = vec![FileEntry::new("old-name.bin", content.clone())];
        let new = vec![FileEntry::new("new-name.bin", content.clone())];
        let out = sync_collection(&old, &new, &small_cfg()).unwrap();
        assert_eq!(out.files[0].data, content);
        assert_eq!(out.renamed, 1);
        assert_eq!(out.created, 1);
        // A rename costs names + fingerprints, never a transfer.
        assert!(out.traffic.total_bytes() < 128, "rename cost {} bytes", out.traffic.total_bytes());
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
        let old = vec![FileEntry::new("a", a_old), FileEntry::new("b", b_old)];
        let new = vec![FileEntry::new("a", a_new), FileEntry::new("b", b_new)];
        let out = sync_collection(&old, &new, &small_cfg()).unwrap();
        let per_file_max = out.per_file.iter().map(|(_, s)| s.traffic.roundtrips).max().unwrap();
        assert_eq!(out.traffic.roundtrips, per_file_max + 1);
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
/// differing files run per-file sessions. With few changes in a large
/// collection, [`ReconStrategy::Merkle`] or
/// [`ReconStrategy::GroupTesting`] cut the setup cost from `O(n)` to
/// `O(d·log n)`.
///
/// Differences from [`sync_collection`]: renamed files are **not**
/// detected here — a file appearing under a new name reconciles as
/// created and transfers as a delta against empty — and unchanged files
/// cost zero instead of a fingerprint pair. Prefer this variant for
/// large mostly-unchanged collections, the plain one when renames are
/// common.
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
    let client_items = items(old);
    let server_items = items(new);
    let rec = match strategy {
        ReconStrategy::Flat => recon::flat_exchange(&client_items, &server_items),
        ReconStrategy::Merkle => recon::merkle::reconcile(&client_items, &server_items),
        ReconStrategy::GroupTesting => {
            recon::group_testing::reconcile(&client_items, &server_items)
        }
    };
    let differing: std::collections::HashSet<&str> =
        rec.differing.iter().map(String::as_str).collect();

    let mut setup = TrafficStats::new();
    setup.record(Direction::ClientToServer, Phase::Setup, rec.c2s);
    setup.record(Direction::ServerToClient, Phase::Setup, rec.s2c);

    let old_by_name: std::collections::HashMap<&str, &FileEntry> =
        old.iter().map(|f| (f.name.as_str(), f)).collect();
    let new_names: std::collections::HashSet<&str> = new.iter().map(|f| f.name.as_str()).collect();
    let deleted = old.iter().filter(|f| !new_names.contains(f.name.as_str())).count();

    // A name only the server has always reconciles as differing.
    let created = new.iter().filter(|f| !old_by_name.contains_key(f.name.as_str())).count();
    let pairs: Vec<(&FileEntry, Option<&[u8]>)> = new
        .iter()
        .map(|nf| {
            let name = nf.name.as_str();
            let base = || old_by_name.get(name).map_or(&[][..], |f| f.data.as_slice());
            (nf, differing.contains(name).then(base))
        })
        .collect();
    let mut out = sync_pairs(&pairs, setup, cfg, &Recorder::off())?;
    out.traffic.roundtrips += rec.roundtrips;
    // Reconciliation proved every other file unchanged: zero marginal cost.
    out.unchanged = new.len() - out.per_file.len();
    (out.created, out.deleted) = (created, deleted);
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
