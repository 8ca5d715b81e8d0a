//! Protocol substrate: links, traffic accounting, and link models.
//!
//! The synchronization algorithms in `msync-rsync` and `msync-core`
//! move their frames over this crate's links — the [`Transport`] trait
//! (an in-memory [`Endpoint`] pair or a socket) and the sans-IO
//! [`VirtualLink`] — which charge every frame, with framing overhead,
//! to per-direction per-phase byte counters. That makes every
//! experiment's cost numbers exact rather than estimated, and lets the
//! [`LinkModel`] translate them into wall-clock time on the slow links
//! the paper targets.
//!
//! A link is not an idealized pipe: every frame carries a length word
//! and a first-party CRC32 ([`crc`]), receives are bounded by a
//! deadline, and a [`fault::FaultPlan`] can subject the virtual link to
//! a deterministic, seeded adversary (drops, bit flips, truncation,
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
    decode_frame, decode_frame_shared, encode_frame, frame_header, frame_wire_size, Arrival,
    Arrivals, ChannelError, Endpoint, FrameError, RetryPolicy, VirtualLink, MAX_FRAME_PAYLOAD,
};
pub use crc::crc32;
pub use fault::{FaultPlan, FaultRates};
pub use link::LinkModel;
pub use stats::{Direction, Phase, PhaseSplit, TrafficStats, WireMeter};
pub use transport::{FaultTransport, Transport};
