//! # msync — multi-round file synchronization
//!
//! A Rust implementation of the file-synchronization framework of
//! Suel, Noel and Trendafilov, *Improved File Synchronization Techniques
//! for Maintaining Large Replicated Collections over Slow Networks*
//! (ICDE 2004).
//!
//! The problem: a client holds an outdated file `f_old`, a server holds
//! the current file `f_new`, and the client must obtain `f_new` with as
//! little communication as possible. rsync solves this with one roundtrip
//! of fixed-size block hashes; this crate implements the paper's
//! multi-round improvement, which typically halves rsync's traffic and
//! comes within a factor ~1.5–2 of a local delta compressor.
//!
//! ## Crate layout
//!
//! * [`hashes`] — rolling, decomposable, and strong (MD4/MD5, SipHash) hashes.
//! * [`compress`] — gzip-like stream compression, a zdelta-like delta
//!   coder, and a vcdiff-like delta coder.
//! * [`protocol`] — message framing, byte-accounting links (a faulty
//!   one among them), and a slow-link cost model.
//! * [`rsync`] — a complete reimplementation of the rsync algorithm used
//!   as the baseline throughout the paper.
//! * [`core`] — the paper's contribution: two-phase (map construction +
//!   delta) multi-round synchronization, with recursive block splitting,
//!   group-testing match verification, continuation hashes, and
//!   decomposable hash functions, run by the two collection machines
//!   that every driver — in-process, `Transport`, daemon — pumps.
//! * [`cdc`] — an LBFS-style content-defined-chunking synchronizer,
//!   a related-work baseline.
//! * [`net`] — the real network layer: a TCP-backed transport speaking
//!   the same frame codec, the `msync serve` daemon, and the
//!   `--remote` client running the pipelined collection scheduler.
//! * [`corpus`] — synthetic data sets with the statistical shape of the
//!   paper's gcc, emacs, and web-crawl collections.
//! * [`trace`] — first-party observability: typed span events, log2
//!   latency histograms, the JSONL journal sink, and the Prometheus-style
//!   metrics snapshot aggregated by the serve daemon.
//!
//! ## Quickstart
//!
//! ```
//! use msync::core::{sync_file, ProtocolConfig};
//!
//! let old = b"the quick brown fox jumps over the lazy dog".repeat(100);
//! let mut new = old.clone();
//! new.extend_from_slice(b"... and a new sentence appears at the end");
//!
//! let outcome = sync_file(&old, &new, &ProtocolConfig::default()).unwrap();
//! assert_eq!(outcome.reconstructed, new);
//! println!("transferred {} bytes for a {}-byte file",
//!          outcome.stats.total_bytes(), new.len());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use msync_cdc as cdc;
pub use msync_compress as compress;
pub use msync_core as core;
pub use msync_corpus as corpus;
pub use msync_hash as hashes;
pub use msync_net as net;
pub use msync_protocol as protocol;
pub use msync_rsync as rsync;
pub use msync_trace as trace;
