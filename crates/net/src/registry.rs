//! The collection registry: many named collections behind atomically
//! swappable snapshots.
//!
//! A daemon serves a [`CollectionRegistry`]: a fixed set of named
//! entries (names are fixed at startup; *contents* are not), each
//! holding an `Arc<CollectionSnapshot>` behind a mutex that is held
//! only long enough to clone or replace the `Arc`. Swapping an entry
//! is therefore atomic under live traffic: a connection binds its
//! `Arc` once at handshake time and finishes byte-exact against that
//! snapshot, while every later handshake resolves to the replacement.
//!
//! A swap builds the new snapshot *sharing the old entry's hash
//! cache* ([`CollectionSnapshot::with_cache`]): files untouched by the
//! reload keep their fingerprints, so their memoized map-phase
//! artifacts stay warm across the swap.
//!
//! Reloading from disk is delegated to a caller-supplied [`Loader`]
//! (the CLI passes its corpus directory loader), which keeps this
//! crate free of filesystem-layout knowledge and lets tests inject
//! synthetic trees.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use msync_core::{CollectionSnapshot, FileEntry};

/// The collection served to clients whose hello omits the collection
/// token.
pub const DEFAULT_COLLECTION: &str = "default";

/// Reads a directory tree into a collection. Errors are human-readable
/// strings: they travel to admin clients on the wire.
pub type Loader = dyn Fn(&Path) -> Result<Vec<FileEntry>, String> + Send + Sync;

/// A typed registration failure, surfaced at CLI parse time rather
/// than as last-one-wins silence at serve time.
#[derive(Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// The same collection name was registered twice (a repeated
    /// `--collection NAME=...` flag, or a registry-dir entry colliding
    /// with an explicit flag).
    Duplicate(String),
    /// The name is not servable: empty, or containing path separators
    /// or `..` (which would let a hello escape a registry directory).
    InvalidName {
        /// The offending name.
        name: String,
        /// Why it was refused.
        reason: &'static str,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Duplicate(name) => {
                write!(f, "collection {name:?} registered more than once")
            }
            Self::InvalidName { name, reason } => {
                write!(f, "invalid collection name {name:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Validate a collection name as servable: nonempty, printable ASCII
/// without spaces (it rides the hello's first line), no path
/// separators, and no `..` component. Shared by the handshake (a
/// malformed requested name is a typed reject, never a lookup) and the
/// CLI (a malformed `--collection` flag fails at parse time).
///
/// # Errors
/// A static reason string naming the violated rule.
pub fn validate_collection_name(name: &str) -> Result<(), &'static str> {
    if name.is_empty() {
        return Err("name is empty");
    }
    if name.len() > 255 {
        return Err("name longer than 255 bytes");
    }
    if !name.bytes().all(|b| (0x21..0x7f).contains(&b)) {
        return Err("name must be printable ASCII without spaces");
    }
    if name.contains('/') || name.contains('\\') {
        return Err("name must not contain path separators");
    }
    if name == "." || name == ".." {
        return Err("name must not be a relative path component");
    }
    Ok(())
}

struct Entry {
    /// The swap point. Held only to clone or replace the `Arc`.
    snapshot: Mutex<Arc<CollectionSnapshot>>,
    /// Where the collection was loaded from, if it came from disk —
    /// the path [`CollectionRegistry::reload`] re-reads.
    source: Option<PathBuf>,
}

/// The daemon's named collections. Built once via [`RegistryBuilder`];
/// entry *contents* swap atomically at runtime, the name set does not.
pub struct CollectionRegistry {
    entries: BTreeMap<String, Entry>,
    default: String,
    loader: Option<Box<Loader>>,
}

impl CollectionRegistry {
    /// A single-collection registry named [`DEFAULT_COLLECTION`] — the
    /// pre-registry daemon surface, used by [`crate::Daemon::spawn`].
    #[must_use]
    pub fn single(files: Vec<FileEntry>) -> Self {
        let mut b = RegistryBuilder::new();
        // Cannot fail: the default name is valid and the builder is
        // fresh; were it ever to, build() still yields an empty default.
        let _ = b.add(DEFAULT_COLLECTION, files, None);
        b.build()
    }

    /// Resolve a client's requested collection. `None` (a hello
    /// without the token) means the default collection.
    /// Returns the canonical name and the snapshot the session is
    /// bound to for its whole life.
    #[must_use]
    pub fn resolve(&self, requested: Option<&str>) -> Option<(String, Arc<CollectionSnapshot>)> {
        let name = requested.unwrap_or(&self.default);
        let entry = self.entries.get(name)?;
        let snap = Arc::clone(&entry.snapshot.lock().unwrap_or_else(PoisonError::into_inner));
        Some((name.to_owned(), snap))
    }

    /// The current snapshot of `name`, if registered.
    #[must_use]
    pub fn snapshot(&self, name: &str) -> Option<Arc<CollectionSnapshot>> {
        self.resolve(Some(name)).map(|(_, snap)| snap)
    }

    /// Atomically replace `name`'s snapshot with one built from
    /// `files`, sharing the old snapshot's hash cache so unchanged
    /// files stay warm. In-flight sessions keep the `Arc` they bound
    /// at handshake; only later handshakes see the replacement.
    ///
    /// Returns the new snapshot, or `None` if `name` is not
    /// registered (the name set is fixed at startup).
    pub fn swap(&self, name: &str, files: Vec<FileEntry>) -> Option<Arc<CollectionSnapshot>> {
        let entry = self.entries.get(name)?;
        let mut slot = entry.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        let next = Arc::new(CollectionSnapshot::with_cache(files, Arc::clone(slot.cache())));
        *slot = Arc::clone(&next);
        Some(next)
    }

    /// Re-read `name`'s source directory through the registry's loader
    /// and [`swap`](Self::swap) the result in. This is the `reload`
    /// admin verb's implementation; errors are the strings sent back
    /// to the admin client.
    ///
    /// # Errors
    /// Unknown name, an entry with no source path, a registry built
    /// without a loader, or a loader failure.
    pub fn reload(&self, name: &str) -> Result<usize, String> {
        let entry = self.entries.get(name).ok_or_else(|| format!("unknown collection {name}"))?;
        let source = entry
            .source
            .as_ref()
            .ok_or_else(|| format!("collection {name} has no source directory"))?;
        let loader =
            self.loader.as_ref().ok_or_else(|| "daemon has no collection loader".to_owned())?;
        let files = loader(source).map_err(|e| format!("reload of {name} failed: {e}"))?;
        let count = files.len();
        self.swap(name, files).ok_or_else(|| format!("unknown collection {name}"))?;
        Ok(count)
    }

    /// The name served when a client requests none.
    #[must_use]
    pub fn default_name(&self) -> &str {
        &self.default
    }

    /// Registered collection names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }
}

/// Accumulates named collections, refusing duplicates and invalid
/// names with typed errors, then freezes into a [`CollectionRegistry`].
pub struct RegistryBuilder {
    entries: BTreeMap<String, Entry>,
    loader: Option<Box<Loader>>,
}

impl Default for RegistryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RegistryBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self { entries: BTreeMap::new(), loader: None }
    }

    /// Register `name` serving `files`, remembering `source` as the
    /// directory [`CollectionRegistry::reload`] re-reads.
    ///
    /// # Errors
    /// [`RegistryError::Duplicate`] if `name` is already registered,
    /// [`RegistryError::InvalidName`] if it fails
    /// [`validate_collection_name`].
    pub fn add(
        &mut self,
        name: &str,
        files: Vec<FileEntry>,
        source: Option<PathBuf>,
    ) -> Result<(), RegistryError> {
        validate_collection_name(name)
            .map_err(|reason| RegistryError::InvalidName { name: name.to_owned(), reason })?;
        if self.entries.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_owned()));
        }
        let snapshot = Mutex::new(Arc::new(CollectionSnapshot::new(files)));
        self.entries.insert(name.to_owned(), Entry { snapshot, source });
        Ok(())
    }

    /// Install the directory loader [`CollectionRegistry::reload`]
    /// uses.
    pub fn loader(
        &mut self,
        loader: impl Fn(&Path) -> Result<Vec<FileEntry>, String> + Send + Sync + 'static,
    ) {
        self.loader = Some(Box::new(loader));
    }

    /// Freeze the name set. The default collection is
    /// [`DEFAULT_COLLECTION`] if registered, else the first name in
    /// sorted order; an empty builder yields an empty default entry so
    /// a nameless daemon still answers hellos.
    #[must_use]
    pub fn build(mut self) -> CollectionRegistry {
        if self.entries.is_empty() {
            let snapshot = Mutex::new(Arc::new(CollectionSnapshot::new(Vec::new())));
            self.entries.insert(DEFAULT_COLLECTION.to_owned(), Entry { snapshot, source: None });
        }
        let default = if self.entries.contains_key(DEFAULT_COLLECTION) {
            DEFAULT_COLLECTION.to_owned()
        } else {
            self.entries.keys().next().cloned().unwrap_or_default()
        };
        CollectionRegistry { entries: self.entries, default, loader: self.loader }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, data: &[u8]) -> FileEntry {
        FileEntry::new(name, data.to_vec())
    }

    #[test]
    fn duplicate_names_are_a_typed_error() {
        let mut b = RegistryBuilder::new();
        b.add("docs", vec![], None).unwrap();
        assert_eq!(b.add("docs", vec![], None), Err(RegistryError::Duplicate("docs".to_owned())));
    }

    #[test]
    fn invalid_names_are_refused() {
        for bad in ["", "a/b", "a\\b", "..", ".", "has space", "tab\tname"] {
            assert!(validate_collection_name(bad).is_err(), "{bad:?} accepted");
            let mut b = RegistryBuilder::new();
            assert!(
                matches!(b.add(bad, vec![], None), Err(RegistryError::InvalidName { .. })),
                "{bad:?} registered"
            );
        }
        for good in ["default", "docs", "web-2026.08", "a.b.c", "x"] {
            assert!(validate_collection_name(good).is_ok(), "{good:?} refused");
        }
    }

    #[test]
    fn resolve_falls_back_to_the_default() {
        let reg = CollectionRegistry::single(vec![entry("a", b"alpha")]);
        let (name, snap) = reg.resolve(None).unwrap();
        assert_eq!(name, DEFAULT_COLLECTION);
        assert_eq!(snap.files().len(), 1);
        assert!(reg.resolve(Some("nope")).is_none());
    }

    #[test]
    fn swap_is_visible_to_new_resolves_but_not_held_arcs() {
        let reg = CollectionRegistry::single(vec![entry("a", b"v1")]);
        let (_, held) = reg.resolve(None).unwrap();
        let swapped =
            reg.swap(DEFAULT_COLLECTION, vec![entry("a", b"v2"), entry("b", b"new")]).unwrap();
        assert_eq!(held.files()[0].data, b"v1");
        assert_eq!(swapped.files().len(), 2);
        let (_, now) = reg.resolve(None).unwrap();
        assert_eq!(now.files()[0].data, b"v2");
        assert!(reg.swap("ghost", vec![]).is_none(), "unknown names cannot be created by swap");
    }

    #[test]
    fn swap_shares_the_hash_cache() {
        let reg = CollectionRegistry::single(vec![entry("a", b"stable bytes")]);
        let before = Arc::clone(reg.snapshot(DEFAULT_COLLECTION).unwrap().cache());
        reg.swap(DEFAULT_COLLECTION, vec![entry("a", b"stable bytes")]).unwrap();
        let after = reg.snapshot(DEFAULT_COLLECTION).unwrap();
        assert!(Arc::ptr_eq(&before, after.cache()));
    }

    #[test]
    fn reload_uses_the_loader_and_source_path() {
        let mut b = RegistryBuilder::new();
        b.add("docs", vec![entry("a", b"old")], Some(PathBuf::from("/virtual/docs"))).unwrap();
        b.add("nosrc", vec![], None).unwrap();
        b.loader(|path| {
            assert_eq!(path, Path::new("/virtual/docs"));
            Ok(vec![entry("a", b"new"), entry("b", b"born")])
        });
        let reg = b.build();
        assert_eq!(reg.reload("docs"), Ok(2));
        assert_eq!(reg.snapshot("docs").unwrap().files()[0].data, b"new");
        assert!(reg.reload("nosrc").unwrap_err().contains("no source"));
        assert!(reg.reload("ghost").unwrap_err().contains("unknown"));
    }

    #[test]
    fn empty_builder_still_serves_an_empty_default() {
        let reg = RegistryBuilder::new().build();
        let (name, snap) = reg.resolve(None).unwrap();
        assert_eq!(name, DEFAULT_COLLECTION);
        assert!(snap.files().is_empty());
    }
}
