//! Real network transport for msync.
//!
//! Everything below `msync-core` is written against the
//! [`Transport`](msync_protocol::Transport) trait; this crate supplies
//! the backend that makes the paper's scenario — maintaining a large
//! replicated collection over a slow wide-area link — runnable against
//! an actual socket:
//!
//! * [`tcp::TcpTransport`] — a TCP-backed `Transport` speaking the same
//!   LEB128+CRC32 frame codec as the in-memory channel, with mandatory
//!   read deadlines and typed [`ChannelError`](msync_protocol::ChannelError)
//!   mapping for socket failures, plus raw socket byte counters so wire
//!   reality can be cross-checked against `TrafficStats` accounting.
//! * [`daemon`] — the `msync serve` side: an event-driven multiplexer
//!   running many concurrent sessions as sans-IO machines over
//!   nonblocking sockets on a fixed worker pool, a version/config
//!   handshake, and admission control with typed capacity refusals.
//! * [`client`] — the `msync sync --remote` side: connect, handshake,
//!   then run the pipelined collection scheduler
//!   ([`msync_core::pipeline`]) against the daemon, optionally with the
//!   fault injector wrapped around the socket.
//!
//! Because both backends implement the same trait, the ARQ recovery
//! machinery, the fault injector, and the collection pipeline are
//! byte-for-byte the same code over loopback TCP as over the in-memory
//! test channel.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod handshake;
mod mux;
pub mod registry;
pub mod tcp;

pub use client::{
    admin_health, admin_reload, admin_sessions, admin_stats, sync_remote, sync_remote_with,
    RemoteOptions, RemoteOutcome,
};
pub use daemon::{Daemon, DaemonOptions, SessionReport};
pub use handshake::{NetError, MIN_PROTOCOL_VERSION, PROTOCOL_VERSION};
pub use registry::{
    validate_collection_name, CollectionRegistry, RegistryBuilder, RegistryError,
    DEFAULT_COLLECTION,
};
pub use tcp::TcpTransport;
