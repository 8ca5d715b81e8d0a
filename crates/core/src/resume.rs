//! Durable session state: checkpoints, the client metadata cache, and
//! the resume plan a reconnecting client presents to the server.
//!
//! Both on-disk artifacts are versioned JSONL, parsed with the same
//! flat-object parser the trace journal uses
//! ([`msync_trace::parse_flat_object`]), and both are append- or
//! atomically-written so a crash can tear at most the final line:
//!
//! * **Checkpoint** ([`CheckpointLog`] / [`load_checkpoint`]) — one
//!   header line binding the protocol-config digest, then one fsynced
//!   line per *completed* file (roster name, strong digest, the
//!   scheduler round it finished in). Parsing stops at the first
//!   malformed line, so a torn tail costs one file of progress, never
//!   the session.
//! * **Metadata cache** ([`MetadataCache`]) — `path → (size, mtime,
//!   strong digest)` for every file the last successful sync applied.
//!   A later run that stats the same size+mtime trusts the digest
//!   without rehashing, and offers it for resume — an unchanged
//!   collection then skips even the per-file map exchange.
//!
//! File names are hex-encoded in both formats so arbitrary bytes
//! survive the escape-free JSONL subset.

use crate::config::ProtocolConfig;
use crate::params;
use msync_hash::{file_fingerprint, Fingerprint};
use msync_trace::{parse_flat_object, FieldValue};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Checkpoint / cache format version. Any change to field names, kind
/// tokens, or value types bumps this; loaders treat other versions as
/// absent state, never as an error.
pub const STATE_VERSION: u32 = 1;

/// Digest of the canonical [`params::render`] text of a config. Resume
/// is only sound between runs that agree on every protocol parameter
/// (block sizes, hash widths, verification strategy), so the digest
/// binds checkpoints and offers to the exact configuration.
pub fn config_digest(cfg: &ProtocolConfig) -> [u8; 16] {
    file_fingerprint(params::render(cfg).as_bytes()).0
}

/// What a reconnecting client presents to the server: the config
/// digest its durable state was produced under, plus the files it
/// believes are already up to date (name → strong digest of the local
/// content).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumePlan {
    /// Digest of the protocol config the entries were verified under.
    pub config_digest: [u8; 16],
    /// `(name, strong digest)` per already-complete file, sorted by
    /// name with duplicates removed (last writer wins).
    pub entries: Vec<(String, Fingerprint)>,
}

impl ResumePlan {
    /// A plan for `cfg` with no entries yet.
    pub fn new(cfg: &ProtocolConfig) -> Self {
        ResumePlan { config_digest: config_digest(cfg), entries: Vec::new() }
    }

    /// Merge `(name, digest)` claims into the plan; later claims for
    /// the same name replace earlier ones. Keeps `entries` sorted.
    pub fn add(&mut self, name: impl Into<String>, digest: Fingerprint) {
        let name = name.into();
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(name.as_str())) {
            Ok(i) => self.entries[i].1 = digest,
            Err(i) => self.entries.insert(i, (name, digest)),
        }
    }

    /// Whether there is anything worth offering.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A parsed checkpoint: which files a previous, interrupted run had
/// fully completed, and under which config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Digest of the protocol config the run used.
    pub config_digest: [u8; 16],
    /// `(name, strong digest, scheduler round)` per completed file, in
    /// completion order.
    pub files: Vec<(String, Fingerprint, u64)>,
}

/// An append-only, per-line-fsynced checkpoint journal. Created fresh
/// at session start (truncating any previous one); one line is
/// appended as each file completes, so the on-disk state is always a
/// prefix of the truth.
#[derive(Debug)]
pub struct CheckpointLog {
    file: fs::File,
}

impl CheckpointLog {
    /// Create (or truncate) the checkpoint at `path`, writing and
    /// fsyncing the header line that binds `config_digest`.
    ///
    /// # Errors
    /// On any filesystem error, with the path in the message.
    pub fn create(path: &Path, config_digest: [u8; 16]) -> Result<CheckpointLog, String> {
        let mut file = fs::File::create(path)
            .map_err(|e| format!("cannot create checkpoint {}: {e}", path.display()))?;
        let header = format!(
            "{{\"v\":{STATE_VERSION},\"kind\":\"msync-checkpoint\",\"config\":\"{}\"}}\n",
            Fingerprint(config_digest).to_hex()
        );
        file.write_all(header.as_bytes())
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        file.sync_all().map_err(|e| format!("cannot fsync checkpoint {}: {e}", path.display()))?;
        Ok(CheckpointLog { file })
    }

    /// Append one completed file and fsync, so the entry survives a
    /// crash the moment this returns.
    ///
    /// # Errors
    /// On any filesystem error.
    pub fn append(&mut self, name: &str, digest: Fingerprint, round: u64) -> Result<(), String> {
        let line = format!(
            "{{\"kind\":\"file\",\"name_hex\":\"{}\",\"digest\":\"{}\",\"round\":{round}}}\n",
            hex_encode(name.as_bytes()),
            digest.to_hex()
        );
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| format!("cannot append to checkpoint: {e}"))?;
        self.file.sync_data().map_err(|e| format!("cannot fsync checkpoint: {e}"))
    }
}

/// Load a checkpoint. Returns `Ok(None)` when the file does not exist,
/// has a different [`STATE_VERSION`], or is not a checkpoint at all —
/// resume then simply has nothing to offer. Parsing stops silently at
/// the first malformed entry line (a torn tail from a crash
/// mid-append).
///
/// # Errors
/// Only on I/O errors reading an existing file.
pub fn load_checkpoint(path: &Path) -> Result<Option<SessionCheckpoint>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read checkpoint {}: {e}", path.display())),
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else { return Ok(None) };
    let Ok(fields) = parse_flat_object(header) else { return Ok(None) };
    if lookup_u64(&fields, "v") != Some(u64::from(STATE_VERSION))
        || lookup_str(&fields, "kind") != Some("msync-checkpoint")
    {
        return Ok(None);
    }
    let Some(config_digest) = lookup_str(&fields, "config").and_then(hex_decode16) else {
        return Ok(None);
    };
    let mut files = Vec::new();
    for line in lines {
        let Ok(fields) = parse_flat_object(line) else { break };
        if lookup_str(&fields, "kind") != Some("file") {
            break;
        }
        let name = lookup_str(&fields, "name_hex").and_then(hex_decode_string);
        let digest = lookup_str(&fields, "digest").and_then(hex_decode16);
        let round = lookup_u64(&fields, "round");
        match (name, digest, round) {
            (Some(name), Some(digest), Some(round)) => {
                files.push((name, Fingerprint(digest), round));
            }
            _ => break,
        }
    }
    Ok(Some(SessionCheckpoint { config_digest, files }))
}

/// One metadata cache record: enough to decide "unchanged since the
/// last sync" from a `stat` alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// File size in bytes at record time.
    pub size: u64,
    /// Modification time in microseconds since the Unix epoch.
    pub mtime_us: u64,
    /// Strong digest of the content those stats described.
    pub digest: Fingerprint,
}

/// The client metadata cache: `path → (size, mtime, digest)`,
/// persisted as versioned JSONL and rewritten atomically after each
/// successful sync.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetadataCache {
    entries: BTreeMap<String, CacheEntry>,
}

impl MetadataCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load from `path`. A missing file, a foreign format, or a
    /// version mismatch all yield an empty cache (the cache is an
    /// optimization, never a requirement); a torn tail drops only the
    /// torn lines.
    ///
    /// # Errors
    /// Only on I/O errors reading an existing file.
    pub fn load(path: &Path) -> Result<MetadataCache, String> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(MetadataCache::new());
            }
            Err(e) => return Err(format!("cannot read cache {}: {e}", path.display())),
        };
        let mut cache = MetadataCache::new();
        let mut lines = text.lines();
        let Some(header) = lines.next() else { return Ok(cache) };
        let Ok(fields) = parse_flat_object(header) else { return Ok(cache) };
        if lookup_u64(&fields, "v") != Some(u64::from(STATE_VERSION))
            || lookup_str(&fields, "kind") != Some("msync-cache")
        {
            return Ok(cache);
        }
        for line in lines {
            let Ok(fields) = parse_flat_object(line) else { break };
            let name = lookup_str(&fields, "name_hex").and_then(hex_decode_string);
            let size = lookup_u64(&fields, "size");
            let mtime_us = lookup_u64(&fields, "mtime_us");
            let digest = lookup_str(&fields, "digest").and_then(hex_decode16);
            match (name, size, mtime_us, digest) {
                (Some(name), Some(size), Some(mtime_us), Some(digest)) => {
                    cache
                        .entries
                        .insert(name, CacheEntry { size, mtime_us, digest: Fingerprint(digest) });
                }
                _ => break,
            }
        }
        Ok(cache)
    }

    /// Render to the JSONL format [`MetadataCache::load`] reads.
    pub fn render(&self) -> String {
        let mut out = format!("{{\"v\":{STATE_VERSION},\"kind\":\"msync-cache\"}}\n");
        for (name, e) in &self.entries {
            out.push_str(&format!(
                "{{\"name_hex\":\"{}\",\"size\":{},\"mtime_us\":{},\"digest\":\"{}\"}}\n",
                hex_encode(name.as_bytes()),
                e.size,
                e.mtime_us,
                e.digest.to_hex()
            ));
        }
        out
    }

    /// Atomically rewrite the cache at `path` (via the sibling-temp
    /// discipline of [`crate::apply`]).
    ///
    /// # Errors
    /// On any filesystem error.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        crate::apply::atomic_write_file(path, self.render().as_bytes())
    }

    /// The digest recorded for `name`, iff the recorded size and mtime
    /// both still match — the "unchanged since last sync" fast path.
    pub fn lookup(&self, name: &str, size: u64, mtime_us: u64) -> Option<Fingerprint> {
        let e = self.entries.get(name)?;
        (e.size == size && e.mtime_us == mtime_us).then_some(e.digest)
    }

    /// Record (or replace) one file's metadata.
    pub fn record(&mut self, name: String, entry: CacheEntry) {
        self.entries.insert(name, entry);
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache has no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn lookup_u64(fields: &[(String, FieldValue)], key: &str) -> Option<u64> {
    fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        FieldValue::U64(n) => Some(*n),
        _ => None,
    })
}

fn lookup_str<'a>(fields: &'a [(String, FieldValue)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
        FieldValue::Str(s) => Some(s.as_str()),
        _ => None,
    })
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_nibble(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

fn hex_decode(text: &str) -> Option<Vec<u8>> {
    let bytes = text.as_bytes();
    if bytes.len() % 2 != 0 {
        return None;
    }
    bytes
        .chunks_exact(2)
        .map(|pair| Some(hex_nibble(pair[0])? << 4 | hex_nibble(pair[1])?))
        .collect()
}

fn hex_decode16(text: &str) -> Option<[u8; 16]> {
    let v = hex_decode(text)?;
    <[u8; 16]>::try_from(v).ok()
}

fn hex_decode_string(text: &str) -> Option<String> {
    String::from_utf8(hex_decode(text)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msync-resume-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(tag)
    }

    #[test]
    fn config_digest_tracks_the_config() {
        let a = ProtocolConfig::default();
        let mut b = ProtocolConfig::default();
        b.start_block *= 2;
        assert_eq!(config_digest(&a), config_digest(&ProtocolConfig::default()));
        assert_ne!(config_digest(&a), config_digest(&b));
    }

    #[test]
    fn checkpoint_roundtrips() {
        let path = tmp_path("ckpt-roundtrip");
        let digest = config_digest(&ProtocolConfig::default());
        let mut log = CheckpointLog::create(&path, digest).unwrap();
        log.append("a.txt", file_fingerprint(b"aaa"), 0).unwrap();
        log.append("dir/b with space.bin", file_fingerprint(b"bbb"), 2).unwrap();
        drop(log);
        let ckpt = load_checkpoint(&path).unwrap().unwrap();
        assert_eq!(ckpt.config_digest, digest);
        assert_eq!(ckpt.files.len(), 2);
        assert_eq!(ckpt.files[0], ("a.txt".to_owned(), file_fingerprint(b"aaa"), 0));
        assert_eq!(ckpt.files[1], ("dir/b with space.bin".to_owned(), file_fingerprint(b"bbb"), 2));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_checkpoint_tail_drops_only_the_tail() {
        let path = tmp_path("ckpt-torn");
        let digest = [7u8; 16];
        let mut log = CheckpointLog::create(&path, digest).unwrap();
        log.append("done.txt", file_fingerprint(b"x"), 1).unwrap();
        drop(log);
        // Simulate a crash mid-append: a truncated trailing line.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"file\",\"name_hex\":\"61\",\"dig");
        fs::write(&path, text).unwrap();
        let ckpt = load_checkpoint(&path).unwrap().unwrap();
        assert_eq!(ckpt.files.len(), 1);
        assert_eq!(ckpt.files[0].0, "done.txt");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn absent_or_foreign_checkpoints_are_none() {
        let path = tmp_path("ckpt-absent");
        let _ = fs::remove_file(&path);
        assert_eq!(load_checkpoint(&path).unwrap(), None);
        fs::write(&path, "not a checkpoint\n").unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), None);
        fs::write(&path, "{\"v\":999,\"kind\":\"msync-checkpoint\",\"config\":\"00\"}\n").unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn cache_roundtrips_and_validates_stats() {
        let path = tmp_path("cache-roundtrip");
        let mut cache = MetadataCache::new();
        let digest = file_fingerprint(b"content");
        cache.record("x/y.txt".to_owned(), CacheEntry { size: 7, mtime_us: 123, digest });
        cache.save(&path).unwrap();
        let loaded = MetadataCache::load(&path).unwrap();
        assert_eq!(loaded, cache);
        assert_eq!(loaded.lookup("x/y.txt", 7, 123), Some(digest));
        assert_eq!(loaded.lookup("x/y.txt", 8, 123), None, "size changed");
        assert_eq!(loaded.lookup("x/y.txt", 7, 124), None, "mtime changed");
        assert_eq!(loaded.lookup("other", 7, 123), None);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn absent_cache_is_empty() {
        let path = tmp_path("cache-absent");
        let _ = fs::remove_file(&path);
        assert!(MetadataCache::load(&path).unwrap().is_empty());
    }

    #[test]
    fn plan_add_sorts_and_replaces() {
        let mut plan = ResumePlan::new(&ProtocolConfig::default());
        plan.add("b".to_owned(), file_fingerprint(b"1"));
        plan.add("a".to_owned(), file_fingerprint(b"2"));
        plan.add("b".to_owned(), file_fingerprint(b"3"));
        assert_eq!(plan.entries.len(), 2);
        assert_eq!(plan.entries[0].0, "a");
        assert_eq!(plan.entries[1], ("b".to_owned(), file_fingerprint(b"3")));
    }
}
