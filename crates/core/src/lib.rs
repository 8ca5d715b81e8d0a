//! # msync-core — multi-round file synchronization
//!
//! The paper's primary contribution: a two-phase framework for updating
//! an outdated file replica over a slow link with far less traffic than
//! rsync.
//!
//! **Phase 1 — map construction** ([`session`]): over multiple rounds of
//! shrinking block sizes, the server sends weak hashes of its file's
//! blocks and the client identifies which blocks it already holds,
//! verified with an optimized group-testing sub-protocol. The techniques
//! of paper §5 are all here:
//!
//! * recursive splitting of unmatched blocks ([`items`]),
//! * optimized match verification via group testing with salvage
//!   ([`verify`]),
//! * continuation hashes that extend confirmed matches with 3–4-bit
//!   hashes, checked at one predicted position ([`items`], [`index`]),
//! * decomposable hash functions that let every other sibling hash be
//!   derived instead of transmitted
//!   ([`msync_hash::decomposable`]).
//!
//! **Phase 2 — delta compression** ([`session`]): both sides assemble the
//! identical reference string from the map's known areas; the server
//! sends a zdelta-style delta of the current file against it.
//!
//! [`collection`] scales the session to whole replicated collections
//! (the paper's target workload), settling unchanged files up front by
//! their roster fingerprints and batching rounds across files so
//! roundtrip counts stay independent of collection size.
//!
//! ## Example
//!
//! ```
//! use msync_core::{sync_file, ProtocolConfig};
//!
//! let old = b"the quick brown fox jumps over the lazy dog. ".repeat(200);
//! let mut new = old.clone();
//! new.truncate(6_000);
//! new.extend_from_slice(b"and then the story changes completely...");
//!
//! let out = sync_file(&old, &new, &ProtocolConfig::default()).unwrap();
//! assert_eq!(out.reconstructed, new);
//! assert!(out.stats.total_bytes() < new.len() as u64 / 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apply;
pub mod collection;
pub mod config;
pub mod coverage;
pub mod engine;
pub mod index;
pub mod items;
pub mod map;
pub mod params;
pub mod pipeline;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod verify;

pub use apply::{atomic_write_file, AtomicApplier, TEMP_SUFFIX};
pub use collection::{CollectionOutcome, FileEntry, FileRef};
pub use config::{BatchConfig, ChannelOptions, ProtocolConfig, VerifyStrategy};
pub use engine::{CollectionClientMachine, CollectionServeMachine, CompletedFile, Machine, Output};
pub use map::{FileMap, Segment};
/// The delta codec's head-table pool counters, re-exported so the
/// daemon can render them without a dependency of its own on the codec.
pub use msync_compress::scratch_stats as codec_scratch_stats;
pub use pipeline::{
    roster_frame_bytes, serve_collection, sync_collection, sync_collection_client,
    sync_collection_client_with, sync_collection_on_link, sync_collection_traced, PipelineOptions,
    ServeOutcome, WINDOW_BUDGET_BYTES,
};
pub use session::{sync_file, sync_file_with, SyncError, SyncOptions, SyncOutcome};
pub use snapshot::{CollectionSnapshot, HashCache, ServedFiles, SessionCache};
pub use stats::{LevelStats, SyncStats};
