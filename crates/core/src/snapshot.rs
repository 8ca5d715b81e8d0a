//! Copy-on-write collection snapshots and the cross-session hash cache.
//!
//! A [`CollectionSnapshot`] freezes a served collection — files plus
//! their precomputed fingerprints — behind an `Arc` so a daemon can
//! atomically swap what it serves: in-flight sessions keep the `Arc`
//! they started with and finish byte-exact against it, while new
//! sessions bind the replacement. Building the snapshot fingerprints
//! every file exactly once, so the roster every client receives costs
//! the daemon no hashing.
//!
//! The snapshot also carries a [`HashCache`]: a cross-session memo of
//! per-file map-phase artifacts keyed by `(file fingerprint,
//! ProtocolConfig digest)`. Two clients syncing the same hot file with
//! the same configuration cause its block hash tree and verification
//! hashes to be computed once, not once per session. The cache stores
//! *full-width* digests ([`DecomposableDigest`] for ranges, the
//! untruncated 64-bit value for verification hashes), so any requested
//! `bits` width is served from one entry. Group keys are the exact
//! `(offset, len)` range lists — equality on the real inputs, never on
//! a hash of them — so a cache hit can never substitute a wrong
//! verification value.
//!
//! The cache is storage only: hit/miss *events* are recorded through
//! the per-session [`Recorder`] carried by the [`SessionCache`] handle,
//! which keeps the daemon-level invariant that aggregate metrics equal
//! the sum of per-session metrics.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

use msync_hash::{truncate_bits, DecomposableDigest, Fingerprint, Md5};
use msync_trace::{EventKind, Recorder};

use crate::collection::{FileEntry, FileRef};

/// Key of one file's artifact set: its content fingerprint plus the
/// digest of the [`crate::ProtocolConfig`] the artifacts were built
/// under. Two configs with different block-size schedules or hash
/// widths never share entries.
type FileKey = (Fingerprint, [u8; 16]);

/// Memoized map-phase artifacts for one `(file, config)` pair.
#[derive(Default)]
struct FileArtifacts {
    /// `(new_off, len)` → full-width block digest. Served for any
    /// requested prefix width via [`DecomposableDigest::prefix`].
    ranges: HashMap<(u64, u64), DecomposableDigest>,
    /// Exact verification-group range list → untruncated 64-bit MD5
    /// value of the concatenated ranges; truncated per request.
    groups: HashMap<Box<[(u64, u64)]>, u64>,
}

/// Cross-session memo of per-file map-phase hash work.
///
/// Thread-safe; shared across all sessions of a collection (and across
/// snapshot swaps — the reload path passes the old cache to the new
/// snapshot, so unchanged files stay warm). Evicts whole file entries
/// FIFO once `max_files` distinct `(file, config)` keys exist.
pub struct HashCache {
    inner: Mutex<CacheInner>,
    max_files: usize,
}

struct CacheInner {
    files: HashMap<FileKey, FileArtifacts>,
    order: VecDeque<FileKey>,
}

/// Default bound on distinct `(file, config)` entries.
pub const DEFAULT_CACHE_FILES: usize = 4096;

impl Default for HashCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CACHE_FILES)
    }
}

impl HashCache {
    /// A cache bounded to `max_files` distinct `(file, config)` keys.
    #[must_use]
    pub fn with_capacity(max_files: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner { files: HashMap::new(), order: VecDeque::new() }),
            max_files: max_files.max(1),
        }
    }

    /// Distinct `(file, config)` entries currently held.
    #[must_use]
    pub fn file_entries(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).files.len()
    }

    fn lookup_range(&self, key: FileKey, range: (u64, u64)) -> Option<DecomposableDigest> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .files
            .get(&key)?
            .ranges
            .get(&range)
            .copied()
    }

    fn insert_range(&self, key: FileKey, range: (u64, u64), digest: DecomposableDigest) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entry(key, self.max_files).ranges.insert(range, digest);
    }

    fn lookup_group(&self, key: FileKey, ranges: &[(u64, u64)]) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .files
            .get(&key)?
            .groups
            .get(ranges)
            .copied()
    }

    fn insert_group(&self, key: FileKey, ranges: Box<[(u64, u64)]>, value: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.entry(key, self.max_files).groups.insert(ranges, value);
    }
}

impl CacheInner {
    /// The artifact set for `key`, creating (and FIFO-evicting) as
    /// needed.
    fn entry(&mut self, key: FileKey, max_files: usize) -> &mut FileArtifacts {
        if !self.files.contains_key(&key) {
            while self.files.len() >= max_files {
                match self.order.pop_front() {
                    Some(old) => {
                        self.files.remove(&old);
                    }
                    None => break,
                }
            }
            self.order.push_back(key);
        }
        self.files.entry(key).or_default()
    }
}

/// One session's handle into the shared [`HashCache`]: the cache, the
/// `(file, config)` key the session operates under, and the session's
/// recorder for hit/miss events.
#[derive(Clone)]
pub struct SessionCache {
    cache: Arc<HashCache>,
    key: FileKey,
    rec: Recorder,
}

impl SessionCache {
    /// Bind a session to `cache` under `(file_fp, cfg_digest)`.
    #[must_use]
    pub fn new(
        cache: Arc<HashCache>,
        file_fp: Fingerprint,
        cfg_digest: [u8; 16],
        rec: Recorder,
    ) -> Self {
        Self { cache, key: (file_fp, cfg_digest), rec }
    }

    /// Cached digest of `new[off..off + len]` if present, recording the
    /// hit. Absence records nothing: the caller chooses how to obtain
    /// the digest (derivation or a metered scan), so a lookup that
    /// falls through is not yet a miss.
    #[must_use]
    pub fn cached_range(&self, off: u64, len: u64) -> Option<DecomposableDigest> {
        let hit = self.cache.lookup_range(self.key, (off, len))?;
        self.rec.record(EventKind::HashCacheHit { bytes: len });
        Some(hit)
    }

    /// Record a digest obtained by sibling decomposition — no bytes
    /// were scanned — and warm the cache with it for later sessions.
    pub fn note_derived(&self, off: u64, len: u64, digest: DecomposableDigest) {
        self.cache.insert_range(self.key, (off, len), digest);
        self.rec.record(EventKind::HashCacheDerived { bytes: len });
    }

    /// Full-width block digest of `new[off..off + len]`, memoized.
    ///
    /// # Panics
    /// If the range exceeds `new` — callers derive ranges from the same
    /// item table that indexed `new` in the first place.
    #[must_use]
    pub fn range_digest(&self, new: &[u8], off: u64, len: u64) -> DecomposableDigest {
        if let Some(hit) = self.cache.lookup_range(self.key, (off, len)) {
            self.rec.record(EventKind::HashCacheHit { bytes: len });
            return hit;
        }
        let digest = DecomposableDigest::of(&new[off as usize..(off + len) as usize]);
        self.cache.insert_range(self.key, (off, len), digest);
        self.rec.record(EventKind::HashCacheMiss { bytes: len });
        digest
    }

    /// `bits`-wide verification hash of the concatenation of `ranges`
    /// out of `new`, memoized at full width and truncated per request.
    ///
    /// # Panics
    /// As [`Self::range_digest`].
    #[must_use]
    pub fn group_hash(&self, new: &[u8], ranges: &[(u64, u64)], bits: u32) -> u64 {
        let bytes: u64 = ranges.iter().map(|&(_, len)| len).sum();
        if let Some(full) = self.cache.lookup_group(self.key, ranges) {
            self.rec.record(EventKind::HashCacheHit { bytes });
            return truncate_bits(full, bits);
        }
        let mut md5 = Md5::new();
        for &(off, len) in ranges {
            md5.update(&new[off as usize..(off + len) as usize]);
        }
        let full = md5.finish_bits(64);
        self.cache.insert_group(self.key, ranges.into(), full);
        self.rec.record(EventKind::HashCacheMiss { bytes });
        truncate_bits(full, bits)
    }
}

/// What a [`CollectionServeMachine`](crate::CollectionServeMachine)
/// reads of the collection it serves: a daemon's [`CollectionSnapshot`],
/// or a caller's files borrowed for one sync (`[FileRef]`). `Sync`, so
/// the machine's runner can fingerprint files for the roster on any
/// thread.
pub trait ServedFiles: Sync {
    /// Number of files.
    fn file_count(&self) -> usize;

    /// File `idx` (`idx < file_count()`).
    fn file(&self, idx: usize) -> FileRef<'_>;

    /// The fingerprint of file `idx`.
    fn fingerprint(&self, idx: usize) -> Fingerprint;

    /// The cross-session hash cache its sessions memoize into, if any.
    fn hash_cache(&self) -> Option<&Arc<HashCache>>;
}

/// One sync's files as the caller holds them: fingerprints computed on
/// demand, no cross-session cache.
impl ServedFiles for [FileRef<'_>] {
    fn file_count(&self) -> usize {
        self.len()
    }

    fn file(&self, idx: usize) -> FileRef<'_> {
        self[idx]
    }

    fn fingerprint(&self, idx: usize) -> Fingerprint {
        msync_hash::file_fingerprint(self[idx].data)
    }

    fn hash_cache(&self) -> Option<&Arc<HashCache>> {
        None
    }
}

impl ServedFiles for CollectionSnapshot {
    fn file_count(&self) -> usize {
        self.files.len()
    }

    fn file(&self, idx: usize) -> FileRef<'_> {
        FileRef::from(&self.files[idx])
    }

    fn fingerprint(&self, idx: usize) -> Fingerprint {
        self.fps[idx]
    }

    fn hash_cache(&self) -> Option<&Arc<HashCache>> {
        Some(&self.cache)
    }
}

/// An immutable view of a served collection: the files, one
/// fingerprint per file (computed once, here), and the shared hash
/// cache its sessions memoize into.
pub struct CollectionSnapshot {
    files: Vec<FileEntry>,
    fps: Vec<Fingerprint>,
    cache: Arc<HashCache>,
}

impl CollectionSnapshot {
    /// Snapshot `files` with a fresh cache.
    #[must_use]
    pub fn new(files: Vec<FileEntry>) -> Self {
        Self::with_cache(files, Arc::new(HashCache::default()))
    }

    /// Snapshot `files` sharing an existing cache — the reload path,
    /// so files unchanged across a swap stay warm (their fingerprints,
    /// and therefore their cache keys, are unchanged).
    #[must_use]
    pub fn with_cache(files: Vec<FileEntry>, cache: Arc<HashCache>) -> Self {
        let fps = files.iter().map(|f| msync_hash::file_fingerprint(&f.data)).collect();
        Self { files, fps, cache }
    }

    /// The served files.
    #[must_use]
    pub fn files(&self) -> &[FileEntry] {
        &self.files
    }

    /// The shared hash cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<HashCache> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msync_hash::file_fingerprint;

    fn handle(cache: &Arc<HashCache>, rec: &Recorder) -> SessionCache {
        SessionCache::new(Arc::clone(cache), file_fingerprint(b"data"), [7; 16], rec.clone())
    }

    #[test]
    fn snapshot_precomputes_fingerprints() {
        let snap = CollectionSnapshot::new(vec![
            FileEntry::new("a", b"alpha".to_vec()),
            FileEntry::new("b", b"beta".to_vec()),
        ]);
        assert_eq!(snap.files().len(), 2);
        assert_eq!(snap.fingerprint(0), file_fingerprint(b"alpha"));
        assert_eq!(snap.fingerprint(1), file_fingerprint(b"beta"));
    }

    #[test]
    fn range_digest_hits_after_miss_and_matches_direct() {
        let cache = Arc::new(HashCache::default());
        let rec = Recorder::system();
        let h = handle(&cache, &rec);
        let new = b"0123456789abcdef".to_vec();

        let first = h.range_digest(&new, 4, 8);
        assert_eq!(first, DecomposableDigest::of(&new[4..12]));
        let second = h.range_digest(&new, 4, 8);
        assert_eq!(second, first);

        let m = rec.snapshot();
        assert_eq!((m.hash_cache_misses, m.hash_cache_hits), (1, 1));
        assert_eq!((m.hash_cache_miss_bytes, m.hash_cache_hit_bytes), (8, 8));
    }

    #[test]
    fn derived_digests_warm_the_cache_without_miss_accounting() {
        let cache = Arc::new(HashCache::default());
        let rec = Recorder::system();
        let h = handle(&cache, &rec);
        let new = b"0123456789abcdef".to_vec();
        assert!(h.cached_range(0, 8).is_none(), "an empty cache has nothing to serve");
        let digest = DecomposableDigest::of(&new[0..8]);
        h.note_derived(0, 8, digest);
        assert_eq!(h.cached_range(0, 8), Some(digest));
        assert_eq!(h.range_digest(&new, 0, 8), digest);
        let m = rec.snapshot();
        assert_eq!(m.hash_cache_misses, 0, "derivation must not meter as a scan");
        assert_eq!((m.hash_cache_derived, m.hash_cache_derived_bytes), (1, 8));
        assert_eq!((m.hash_cache_hits, m.hash_cache_hit_bytes), (2, 16));
    }

    #[test]
    fn group_hash_serves_any_width_from_one_entry() {
        let cache = Arc::new(HashCache::default());
        let rec = Recorder::system();
        let h = handle(&cache, &rec);
        let new = b"the quick brown fox jumps over the lazy dog".to_vec();
        let ranges = [(0u64, 9u64), (16, 10)];

        let mut buf = Vec::new();
        for &(off, len) in &ranges {
            buf.extend_from_slice(&new[off as usize..(off + len) as usize]);
        }
        let full = h.group_hash(&new, &ranges, 64);
        assert_eq!(full, Md5::digest_bits(&buf, 64));
        // Narrower widths are cache hits off the same full-width entry.
        for bits in [12u32, 24, 48] {
            assert_eq!(h.group_hash(&new, &ranges, bits), Md5::digest_bits(&buf, bits));
        }
        let m = rec.snapshot();
        assert_eq!(m.hash_cache_misses, 1);
        assert_eq!(m.hash_cache_hits, 3);
    }

    #[test]
    fn different_config_digests_do_not_share_entries() {
        let cache = Arc::new(HashCache::default());
        let rec = Recorder::system();
        let fp = file_fingerprint(b"same file");
        let a = SessionCache::new(Arc::clone(&cache), fp, [1; 16], rec.clone());
        let b = SessionCache::new(Arc::clone(&cache), fp, [2; 16], rec.clone());
        let new = b"same file contents here".to_vec();
        let _ = a.range_digest(&new, 0, 9);
        let _ = b.range_digest(&new, 0, 9);
        let m = rec.snapshot();
        assert_eq!(m.hash_cache_misses, 2, "distinct configs must not share");
        assert_eq!(cache.file_entries(), 2);
    }

    #[test]
    fn fifo_eviction_caps_file_entries() {
        let cache = Arc::new(HashCache::with_capacity(2));
        let rec = Recorder::off();
        let new = b"xxxxxxxx".to_vec();
        for i in 0u8..4 {
            let h =
                SessionCache::new(Arc::clone(&cache), file_fingerprint(&[i]), [0; 16], rec.clone());
            let _ = h.range_digest(&new, 0, 4);
        }
        assert_eq!(cache.file_entries(), 2);
        // The oldest entry was evicted: re-touching it misses again.
        let rec = Recorder::system();
        let h = SessionCache::new(Arc::clone(&cache), file_fingerprint(&[0]), [0; 16], rec.clone());
        let _ = h.range_digest(&new, 0, 4);
        assert_eq!(rec.snapshot().hash_cache_misses, 1);
    }

    #[test]
    fn reload_with_shared_cache_keeps_unchanged_files_warm() {
        let old = CollectionSnapshot::new(vec![FileEntry::new("a", b"stable".to_vec())]);
        let rec = Recorder::system();
        let h =
            SessionCache::new(Arc::clone(old.cache()), old.fingerprint(0), [0; 16], rec.clone());
        let _ = h.range_digest(b"stable", 0, 6);

        let swapped = CollectionSnapshot::with_cache(
            vec![FileEntry::new("a", b"stable".to_vec()), FileEntry::new("b", b"new".to_vec())],
            Arc::clone(old.cache()),
        );
        let h2 = SessionCache::new(
            Arc::clone(swapped.cache()),
            swapped.fingerprint(0),
            [0; 16],
            rec.clone(),
        );
        let _ = h2.range_digest(b"stable", 0, 6);
        let m = rec.snapshot();
        assert_eq!((m.hash_cache_misses, m.hash_cache_hits), (1, 1));
    }
}
