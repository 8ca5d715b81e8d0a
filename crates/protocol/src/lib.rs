//! Protocol substrate: channels, traffic accounting, and link models.
//!
//! The synchronization algorithms in `msync-rsync` and `msync-core` are
//! written against this crate's [`Endpoint`] abstraction — an in-memory
//! duplex channel whose frames are charged, with framing overhead, to
//! per-direction per-phase byte counters. That makes every experiment's
//! cost numbers exact rather than estimated, and lets the [`LinkModel`]
//! translate them into wall-clock time on the slow links the paper
//! targets.
//!
//! The channel is not an idealized pipe: every frame carries a length
//! word and a first-party CRC32 ([`crc`]), receives are bounded by a
//! deadline, and a [`fault::FaultPlan`] can subject the link to a
//! deterministic, seeded adversary (drops, bit flips, truncation,
//! duplication, reordering delays, mid-round disconnects) so the
//! session layer's recovery machinery can be soak-tested reproducibly.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bufpool;
pub mod channel;
pub mod crc;
pub mod fault;
pub mod link;
pub mod stats;
pub mod transport;

pub use bufpool::{frame_copy_bytes, note_frame_copy, BufferPool, FrameBuf, PoolStats};
pub use channel::{
    decode_frame, decode_frame_shared, encode_frame, frame_header, frame_wire_size, ChannelError,
    Endpoint, Frame, FrameError, RetryPolicy, MAX_FRAME_PAYLOAD,
};
pub use crc::crc32;
pub use fault::{FaultPlan, FaultRates};
pub use link::LinkModel;
pub use stats::{Direction, Phase, PhaseSplit, TrafficStats, WireMeter};
pub use transport::{FaultTransport, Transport};
