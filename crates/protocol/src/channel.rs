//! In-memory duplex channel with exact byte accounting and link faults.
//!
//! The two protocol endpoints (synchronization client and server) run as
//! two threads connected by a pair of message queues. Every frame is
//! *charged* at the wire size a real transport would carry it at —
//!
//! ```text
//! [LEB128 payload length][CRC32 of payload, little-endian][payload]
//! ```
//!
//! — against a `(direction, phase)` counter, so the reported numbers
//! correspond to bytes a TCP connection would carry, checksums included.
//! Roundtrips are counted as direction reversals observed at the
//! channel, matching how the paper counts "one or more roundtrips of
//! communication" per round.
//!
//! The bytes themselves, however, are **never copied on the clean
//! path**: a clean frame travels as a refcounted share of the sender's
//! [`FrameBuf`] payload ([`Frame::Clean`]). Wire encoding exists to
//! make damage detectable, so the channel materializes an encoded image
//! only when a fault actually mutates a frame — via the one sanctioned
//! copy site, [`crate::fault::copy_for_mutation`] — and the receiver
//! rejects that [`Frame::Damaged`] image through the same CRC/length
//! checks a real socket would apply.
//!
//! A channel built with [`Endpoint::pair_with_faults`] additionally runs
//! every sent frame through a deterministic [`FaultInjector`]: frames
//! may be dropped, bit-flipped, truncated, duplicated, delayed past the
//! next frame, or the link may be cut mid-round. Receivers observe these
//! as typed [`ChannelError`]s — corruption is caught by the CRC/length
//! checks, loss by [`Endpoint::recv_timeout`]'s deadline, disconnects as
//! [`ChannelError::Disconnected`]. There is no blocking `recv` without a
//! deadline: a peer that dies must surface as an error, never a hang.

use crate::bufpool::FrameBuf;
use crate::crc::crc32;
use crate::fault::{copy_for_mutation, FaultInjector, FaultPlan};
use crate::stats::{Direction, Phase, PhaseSplit, TrafficStats, WireMeter};
use crate::transport::record_fate;
use msync_trace::Recorder;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A single frame in flight on the in-memory channel.
#[derive(Debug)]
pub enum Frame {
    /// An intact frame: a refcounted share of the sender's payload
    /// allocation. No wire image is built — framing exists to make
    /// damage detectable, and this frame is undamaged by construction.
    Clean(FrameBuf),
    /// A frame a fault mutated: the injector's private encoded wire
    /// image (length word + CRC32 + payload) after the bit flip or
    /// truncation, which the receiver decodes — and rejects — exactly
    /// as a real link would.
    Damaged(FrameBuf),
}

impl Frame {
    /// Another handle to the same frame: a refcount bump, never a byte
    /// copy.
    #[must_use]
    pub fn share(&self) -> Frame {
        match self {
            Frame::Clean(b) => Frame::Clean(b.share()),
            Frame::Damaged(b) => Frame::Damaged(b.share()),
        }
    }
}

/// Bytes of CRC32 carried by every frame.
const CRC_LEN: u64 = 4;

/// The largest payload a frame may announce, 1 GiB, on every transport:
/// a longer length word is rejected as corrupt before anything is
/// buffered, so an inflated length from a bit flip or a hostile peer
/// cannot demand unbounded memory. No real payload approaches it: a
/// batch frame carries at most a window's worth of file content.
pub const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// Size in bytes a frame occupies on the wire: LEB128 length word +
/// 4-byte CRC32 + payload. This is the documented fixed per-frame
/// header overhead relative to a raw payload.
pub fn frame_wire_size(payload_len: usize) -> u64 {
    let varint_len = (64 - (payload_len as u64 | 1).leading_zeros() as u64).div_ceil(7);
    varint_len + CRC_LEN + payload_len as u64
}

/// Encode just the wire header (LEB128 length word + CRC32) for
/// `payload`. The vectored write paths send `[header, payload]` as two
/// I/O slices so the contiguous image [`encode_frame`] returns never
/// has to exist.
pub fn frame_header(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(14);
    let mut v = payload.len() as u64;
    loop {
        let low = u8::try_from(v & 0x7F).unwrap_or(0);
        v >>= 7;
        if v == 0 {
            out.push(low);
            break;
        }
        out.push(low | 0x80);
    }
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Encode a payload into its contiguous wire form (one metered payload
/// copy — prefer [`frame_header`] plus a vectored write where the
/// backend allows it).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    crate::bufpool::note_frame_copy(payload.len());
    let mut out = frame_header(payload);
    out.reserve(payload.len());
    out.extend_from_slice(payload);
    out
}

/// Why a received frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The frame ended before the header said it would.
    Truncated,
    /// The length word is inconsistent with the bytes received.
    Length,
    /// The CRC32 over the payload does not match the header.
    Checksum,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "frame truncated"),
            Self::Length => write!(f, "frame length mismatch"),
            Self::Checksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Decode and verify a wire frame, returning the payload as a view
/// into `bytes` — validation allocates and copies nothing.
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8], FrameError> {
    let mut len = 0u64;
    let mut shift = 0u32;
    let mut pos = 0usize;
    loop {
        let &b = bytes.get(pos).ok_or(FrameError::Truncated)?;
        pos += 1;
        if shift >= 64 {
            return Err(FrameError::Length);
        }
        len |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Length);
    }
    let body = &bytes[pos..];
    if body.len() < 4 {
        return Err(FrameError::Truncated);
    }
    let (crc_bytes, payload) = body.split_at(4);
    if u64::try_from(payload.len()).ok() != Some(len) {
        return Err(FrameError::Length);
    }
    let mut crc = [0u8; 4];
    crc.copy_from_slice(crc_bytes);
    if crc32(payload) != u32::from_le_bytes(crc) {
        return Err(FrameError::Checksum);
    }
    Ok(payload)
}

/// Decode a refcounted wire image into a zero-copy payload view: the
/// returned [`FrameBuf`] is a slice of `wire`'s allocation.
pub fn decode_frame_shared(wire: &FrameBuf) -> Result<FrameBuf, FrameError> {
    let payload_len = decode_frame(wire)?.len();
    Ok(wire.slice(wire.len() - payload_len, wire.len()))
}

/// Error returned by [`Endpoint::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// No frame arrived within the deadline.
    Timeout,
    /// The peer hung up (or the link was cut by a fault) and the queue
    /// is drained.
    Disconnected,
    /// A frame arrived but failed integrity checks.
    Corrupt(FrameError),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => write!(f, "receive timed out"),
            Self::Disconnected => write!(f, "peer disconnected"),
            Self::Corrupt(e) => write!(f, "corrupt frame: {e}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Timeout and bounded-retry policy for a session running over a real
/// channel: how long one receive may wait, how many retransmission
/// attempts are made after consecutive timeouts, and the exponential
/// backoff cap. Protocol logic never reads a clock — the policy is
/// applied per receive call, so runs stay deterministic given the frame
/// sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for a single receive attempt.
    pub timeout: Duration,
    /// Retransmissions attempted after consecutive timeouts before the
    /// session gives up with a typed error.
    pub max_retries: u32,
    /// Upper bound for the doubled per-attempt timeout.
    pub backoff_cap: Duration,
}

impl RetryPolicy {
    /// Timeout of the attempt after one that waited `current`:
    /// exponential backoff, doubled and capped.
    #[must_use]
    pub fn backoff(&self, current: Duration) -> Duration {
        current.saturating_mul(2).min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    /// Generous interactive defaults: 500 ms per attempt, 5 retries,
    /// backoff capped at 2 s (worst-case ≈ 8 s before `Timeout`).
    fn default() -> Self {
        RetryPolicy {
            timeout: Duration::from_millis(500),
            max_retries: 5,
            backoff_cap: Duration::from_secs(2),
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    /// Both endpoints charge their sends here, so either one's
    /// [`Endpoint::stats`] describes the whole link.
    meter: WireMeter,
    /// Set when a disconnect fault cut the link: subsequent sends are
    /// lost and receivers see `Disconnected` once their queue drains.
    cut: bool,
    c2s_faults: Option<FaultInjector>,
    s2c_faults: Option<FaultInjector>,
    /// Frame held back by a delay fault, per direction; delivered ahead
    /// of the next frame sent in the same direction.
    held_c2s: Option<Frame>,
    held_s2c: Option<Frame>,
}

impl Shared {
    fn injector_mut(&mut self, dir: Direction) -> Option<&mut FaultInjector> {
        match dir {
            Direction::ClientToServer => self.c2s_faults.as_mut(),
            Direction::ServerToClient => self.s2c_faults.as_mut(),
        }
    }

    fn held_mut(&mut self, dir: Direction) -> &mut Option<Frame> {
        match dir {
            Direction::ClientToServer => &mut self.held_c2s,
            Direction::ServerToClient => &mut self.held_s2c,
        }
    }
}

/// One side of a duplex channel.
pub struct Endpoint {
    dir: Direction,
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    shared: Arc<Mutex<Shared>>,
    split: PhaseSplit,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("dir", &self.dir).finish()
    }
}

impl Endpoint {
    /// Create a connected pair: `(client_end, server_end)`. Frames sent
    /// from the client end are attributed to [`Direction::ClientToServer`]
    /// and vice versa.
    pub fn pair() -> (Endpoint, Endpoint) {
        Self::pair_shared(Shared::default())
    }

    /// Create a connected pair whose link injects faults per `plan`,
    /// driven deterministically by `seed` (each direction derives its
    /// own stream, so the two sides' faults are decorrelated but the
    /// whole run is reproducible from `(plan, seed)`).
    pub fn pair_with_faults(plan: &FaultPlan, seed: u64) -> (Endpoint, Endpoint) {
        Self::pair_shared(Shared {
            c2s_faults: Some(FaultInjector::new(plan.c2s, seed)),
            s2c_faults: Some(FaultInjector::new(plan.s2c, seed ^ 0x9E37_79B9_7F4A_7C15)),
            ..Shared::default()
        })
    }

    fn pair_shared(shared: Shared) -> (Endpoint, Endpoint) {
        let (tx_c2s, rx_c2s) = channel();
        let (tx_s2c, rx_s2c) = channel();
        let shared = Arc::new(Mutex::new(shared));
        let client = Endpoint {
            dir: Direction::ClientToServer,
            tx: tx_c2s,
            rx: rx_s2c,
            shared: Arc::clone(&shared),
            split: Phase::Setup.into(),
        };
        let server = Endpoint {
            dir: Direction::ServerToClient,
            tx: tx_s2c,
            rx: rx_c2s,
            shared,
            split: Phase::Setup.into(),
        };
        (client, server)
    }

    /// Set the phase (or the split across phases) subsequent sends from
    /// this endpoint are charged to.
    pub fn set_phase(&mut self, split: impl Into<PhaseSplit>) {
        self.split = split.into();
    }

    /// Lock the shared statistics. A poisoned mutex (a peer thread that
    /// panicked while holding it) is recovered rather than propagated:
    /// traffic counters stay well-formed and the channel must never add
    /// a second panic on top of the original failure.
    fn lock_shared(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Send a frame to the peer, charging its wire size (every actual
    /// transmission is charged — including duplicates and frames the
    /// link then loses, because the sender paid for them either way).
    ///
    /// Clean frames are delivered as refcounted shares of `payload`; an
    /// encoded wire image is built (and paid for) only when a fault
    /// actually mutates the frame.
    pub fn send(&self, payload: impl Into<FrameBuf>) {
        let payload = payload.into();
        let mut deliveries: Vec<Frame> = Vec::new();
        {
            let mut shared = self.lock_shared();
            if shared.cut {
                return;
            }
            let fate = shared.injector_mut(self.dir).map(FaultInjector::next_fate);
            if let Some(f) = &fate {
                let seq = shared.injector_mut(self.dir).map_or(0, |i| i.frames_seen());
                record_fate(shared.meter.recorder(), self.dir.into(), f, seq);
            }
            if fate.is_some_and(|f| f.disconnect) {
                shared.cut = true;
                return;
            }
            shared.meter.sent(self.dir, self.split, payload.len());
            // A previously delayed frame is released by the next send in
            // the same direction: it travels ahead of the new frame.
            if let Some(held) = shared.held_mut(self.dir).take() {
                deliveries.push(held);
            }
            let fate = fate.unwrap_or_default();
            let frame = if fate.corrupt || fate.truncate {
                // Damage needs a private wire image: the injector's
                // sanctioned copy, mutated below the CRC.
                let mut wire = copy_for_mutation(&frame_header(&payload), &payload);
                if fate.corrupt {
                    if let Some(inj) = shared.injector_mut(self.dir) {
                        inj.corrupt_frame(&mut wire);
                    }
                }
                if fate.truncate {
                    if let Some(inj) = shared.injector_mut(self.dir) {
                        inj.truncate_frame(&mut wire);
                    }
                }
                Frame::Damaged(FrameBuf::from(wire))
            } else {
                Frame::Clean(payload.share())
            };
            if fate.duplicate {
                shared.meter.sent(self.dir, self.split, payload.len());
                deliveries.push(frame.share());
            }
            if fate.drop {
                // Transmitted (and charged) but lost in transit.
            } else if fate.delay {
                *shared.held_mut(self.dir) = Some(frame);
            } else {
                deliveries.push(frame);
            }
        }
        for frame in deliveries {
            // A send can only fail if the receiver was dropped; the
            // session layer surfaces that on its next receive instead.
            let _ = self.tx.send(frame);
        }
    }

    /// Unwrap a received [`Frame`]: a clean frame's payload share is
    /// handed over as-is; a damaged wire image goes through the same
    /// CRC/length validation a real link applies, and fails there.
    fn open_frame(frame: Frame) -> Result<FrameBuf, ChannelError> {
        match frame {
            Frame::Clean(payload) => Ok(payload),
            Frame::Damaged(wire) => decode_frame_shared(&wire).map_err(ChannelError::Corrupt),
        }
    }

    /// Receive the next frame from the peer, waiting at most `timeout`.
    /// Integrity failures surface as [`ChannelError::Corrupt`]; a dead
    /// peer or cut link as [`ChannelError::Disconnected`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<FrameBuf, ChannelError> {
        if self.lock_shared().cut {
            // The link is gone: drain what already arrived, then report
            // the disconnect immediately instead of burning the timeout.
            return match self.rx.try_recv() {
                Ok(frame) => Self::open_frame(frame),
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => {
                    Err(ChannelError::Disconnected)
                }
            };
        }
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Self::open_frame(frame),
            Err(RecvTimeoutError::Timeout) => {
                if self.lock_shared().cut {
                    Err(ChannelError::Disconnected)
                } else {
                    Err(ChannelError::Timeout)
                }
            }
            Err(RecvTimeoutError::Disconnected) => Err(ChannelError::Disconnected),
        }
    }

    /// Record `frames` retransmitted frames in the shared stats. The
    /// bytes themselves are charged by [`Endpoint::send`] like any other
    /// transmission; this counter makes the recovery cost visible.
    pub fn note_retransmits(&self, frames: u64) {
        self.lock_shared().meter.note_retransmits(frames);
    }

    /// Snapshot of the traffic statistics shared by both endpoints.
    pub fn stats(&self) -> TrafficStats {
        self.lock_shared().meter.stats()
    }

    /// Attach a trace recorder to the channel. Both endpoints share
    /// it: the meter mirrors every charge as a `FrameSend` event and the
    /// channel emits `FaultInjected` events for every fate the injector
    /// assigns.
    pub fn set_recorder(&self, recorder: Recorder) {
        self.lock_shared().meter.set_recorder(recorder);
    }

    /// The trace recorder shared by both endpoints (disabled unless
    /// [`Endpoint::set_recorder`] was called).
    pub fn recorder(&self) -> Recorder {
        self.lock_shared().meter.recorder().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRates;
    use std::thread;

    const TICK: Duration = Duration::from_millis(200);

    #[test]
    fn send_recv_roundtrip() {
        let (client, server) = Endpoint::pair();
        client.send(vec![1, 2, 3]);
        assert_eq!(server.recv_timeout(TICK).unwrap(), vec![1, 2, 3]);
        server.send(vec![4]);
        assert_eq!(client.recv_timeout(TICK).unwrap(), vec![4]);
    }

    #[test]
    fn byte_accounting_includes_framing() {
        let (client, server) = Endpoint::pair();
        client.send(vec![0; 100]);
        let _ = server.recv_timeout(TICK);
        let stats = client.stats();
        assert_eq!(stats.total_c2s(), frame_wire_size(100));
        // LEB128 length word + 4-byte CRC32 + payload.
        assert_eq!(frame_wire_size(100), 105);
        assert_eq!(frame_wire_size(0), 5);
        assert_eq!(frame_wire_size(128), 134);
        assert_eq!(stats.frames, 1);
    }

    #[test]
    fn frame_encoding_roundtrips() {
        for payload in [vec![], vec![7u8], vec![0xAB; 300], vec![1; 20_000]] {
            let encoded = encode_frame(&payload);
            assert_eq!(encoded.len() as u64, frame_wire_size(payload.len()));
            assert_eq!(decode_frame(&encoded).unwrap(), &payload[..]);
        }
    }

    #[test]
    fn frame_decode_rejects_damage() {
        let encoded = encode_frame(&vec![0x5A; 64]);
        // Truncation at every prefix length.
        for cut in 0..encoded.len() {
            assert!(decode_frame(&encoded[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Single bit flips anywhere in the frame.
        for byte in 0..encoded.len() {
            for bit in 0..8 {
                let mut bad = encoded.clone();
                bad[byte] ^= 1 << bit;
                assert!(decode_frame(&bad).is_err(), "flip at {byte}.{bit} accepted");
            }
        }
        // Empty input.
        assert_eq!(decode_frame(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn oversized_length_word_rejected_without_allocation() {
        // A length word claiming ~2^62 bytes must be rejected up front.
        let huge = [0xFFu8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F, 0, 0, 0, 0];
        assert_eq!(decode_frame(&huge), Err(FrameError::Length));
        // One byte over the cap (LEB128 of 2^30 + 1) is as corrupt.
        assert_eq!(MAX_FRAME_PAYLOAD, 1 << 30);
        assert_eq!(
            decode_frame(&[0x81, 0x80, 0x80, 0x80, 0x04, 0, 0, 0, 0]),
            Err(FrameError::Length)
        );
    }

    #[test]
    fn roundtrip_counting() {
        let (mut client, mut server) = Endpoint::pair();
        client.set_phase(Phase::Map);
        server.set_phase(Phase::Map);
        // request → reply → request → reply = 2 roundtrips
        client.send(vec![1]);
        server.send(vec![2]);
        client.send(vec![3]);
        server.send(vec![4]);
        assert_eq!(client.stats().roundtrips, 2);
        // Two sends in a row in the same direction are one half-trip.
        client.send(vec![5]);
        client.send(vec![6]);
        assert_eq!(client.stats().roundtrips, 3);
    }

    #[test]
    fn dead_peer_surfaces_within_deadline() {
        // The satellite regression: a peer that dies must surface as a
        // typed error within the deadline, never a hang.
        let (client, server) = Endpoint::pair();
        let killer = thread::spawn(move || drop(server));
        killer.join().unwrap();
        assert_eq!(client.recv_timeout(Duration::from_secs(5)), Err(ChannelError::Disconnected));

        // A silent (alive but mute) peer surfaces as Timeout instead.
        let (client, _server) = Endpoint::pair();
        assert_eq!(client.recv_timeout(Duration::from_millis(10)), Err(ChannelError::Timeout));
    }

    #[test]
    fn threaded_echo() {
        let (client, server) = Endpoint::pair();
        let h = thread::spawn(move || {
            for _ in 0..100 {
                let m = server.recv_timeout(Duration::from_secs(5)).unwrap();
                server.send(m);
            }
        });
        for i in 0..100u32 {
            client.send(i.to_le_bytes().to_vec());
            assert_eq!(client.recv_timeout(Duration::from_secs(5)).unwrap(), i.to_le_bytes());
        }
        h.join().unwrap();
        assert_eq!(client.stats().roundtrips, 100);
    }

    #[test]
    fn phase_attribution() {
        let (mut client, server) = Endpoint::pair();
        client.send(vec![0; 10]);
        client.set_phase(Phase::Map);
        client.send(vec![0; 20]);
        client.set_phase(Phase::Delta);
        client.send(vec![0; 30]);
        for _ in 0..3 {
            let _ = server.recv_timeout(TICK);
        }
        let stats = client.stats();
        assert_eq!(stats.c2s(Phase::Setup), 15);
        assert_eq!(stats.c2s(Phase::Map), 25);
        assert_eq!(stats.c2s(Phase::Delta), 35);
    }

    #[test]
    fn clean_fault_plan_is_transparent() {
        let (faulty_c, faulty_s) = Endpoint::pair_with_faults(&FaultPlan::none(), 42);
        let (plain_c, plain_s) = Endpoint::pair();
        for ep in [&faulty_c, &plain_c] {
            ep.send(vec![9; 50]);
        }
        assert_eq!(faulty_s.recv_timeout(TICK).unwrap(), plain_s.recv_timeout(TICK).unwrap());
        assert_eq!(faulty_c.stats(), plain_c.stats());
    }

    #[test]
    fn dropped_frames_still_charged() {
        let rates = FaultRates { drop: 1.0, ..FaultRates::none() };
        let (client, server) = Endpoint::pair_with_faults(&FaultPlan::symmetric(rates), 1);
        client.send(vec![0; 10]);
        assert_eq!(server.recv_timeout(Duration::from_millis(10)), Err(ChannelError::Timeout));
        assert_eq!(client.stats().total_c2s(), frame_wire_size(10));
    }

    #[test]
    fn corruption_detected_by_receiver() {
        let rates = FaultRates { corrupt: 1.0, ..FaultRates::none() };
        let (client, server) = Endpoint::pair_with_faults(&FaultPlan::symmetric(rates), 3);
        client.send(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(matches!(server.recv_timeout(TICK), Err(ChannelError::Corrupt(_))));
    }

    #[test]
    fn truncation_detected_by_receiver() {
        let rates = FaultRates { truncate: 1.0, ..FaultRates::none() };
        let (client, server) = Endpoint::pair_with_faults(&FaultPlan::symmetric(rates), 4);
        client.send(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        assert!(matches!(server.recv_timeout(TICK), Err(ChannelError::Corrupt(_))));
    }

    #[test]
    fn duplicates_delivered_and_charged_twice() {
        let rates = FaultRates { duplicate: 1.0, ..FaultRates::none() };
        let (client, server) = Endpoint::pair_with_faults(&FaultPlan::symmetric(rates), 5);
        client.send(vec![7; 10]);
        assert_eq!(server.recv_timeout(TICK).unwrap(), vec![7; 10]);
        assert_eq!(server.recv_timeout(TICK).unwrap(), vec![7; 10]);
        assert_eq!(client.stats().total_c2s(), 2 * frame_wire_size(10));
        assert_eq!(client.stats().frames, 2);
    }

    #[test]
    fn delay_reorders_past_next_frame() {
        let rates = FaultRates { delay: 1.0, ..FaultRates::none() };
        let mut plan = FaultPlan::none();
        plan.c2s = rates;
        let (client, server) = Endpoint::pair_with_faults(&plan, 6);
        client.send(vec![1]); // held
        assert_eq!(server.recv_timeout(Duration::from_millis(10)), Err(ChannelError::Timeout));
        client.send(vec![2]); // releases [1]; [2] is itself held
        assert_eq!(server.recv_timeout(TICK).unwrap(), vec![1]);
    }

    #[test]
    fn disconnect_fault_cuts_both_sides() {
        let rates = FaultRates { disconnect_after: Some(2), ..FaultRates::none() };
        let mut plan = FaultPlan::none();
        plan.c2s = rates;
        let (client, server) = Endpoint::pair_with_faults(&plan, 7);
        client.send(vec![1]);
        client.send(vec![2]);
        client.send(vec![3]); // triggers the cut; frame lost
        assert_eq!(server.recv_timeout(TICK).unwrap(), vec![1]);
        assert_eq!(server.recv_timeout(TICK).unwrap(), vec![2]);
        assert_eq!(server.recv_timeout(TICK), Err(ChannelError::Disconnected));
        // The cut link also swallows the server's sends.
        server.send(vec![9]);
        assert_eq!(client.recv_timeout(TICK), Err(ChannelError::Disconnected));
    }

    #[test]
    fn retransmit_counter_accumulates() {
        let (client, _server) = Endpoint::pair();
        client.note_retransmits(3);
        client.note_retransmits(2);
        assert_eq!(client.stats().retransmits, 5);
    }

    #[test]
    fn frame_send_events_mirror_charged_bytes() {
        use msync_trace::{DirTag, ManualClock, PhaseTag};
        let (mut client, server) = Endpoint::pair();
        let rec = Recorder::with_clock(std::sync::Arc::new(ManualClock::ticking(0, 1)));
        client.set_recorder(rec.clone());
        client.set_phase(Phase::Map);
        client.send(vec![0; 100]);
        server.send(vec![0; 10]);
        let snap = rec.snapshot();
        assert_eq!(snap.dir_phase_bytes(DirTag::C2s, PhaseTag::Map), frame_wire_size(100));
        assert_eq!(snap.dir_phase_bytes(DirTag::S2c, PhaseTag::Setup), frame_wire_size(10));
        assert_eq!(snap.total_bytes(), client.stats().total_bytes());
        assert_eq!(snap.frames_sent, client.stats().frames);
    }

    #[test]
    fn injected_faults_become_trace_events() {
        use msync_trace::{EventKind as Ev, FaultKind};
        let rates = FaultRates { duplicate: 1.0, ..FaultRates::none() };
        let (client, server) = Endpoint::pair_with_faults(&FaultPlan::symmetric(rates), 5);
        let rec = Recorder::system();
        client.set_recorder(rec.clone());
        client.send(vec![7; 10]);
        let _ = server.recv_timeout(TICK);
        let faults: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                Ev::FaultInjected { kind, seq, .. } => Some((kind, seq)),
                _ => None,
            })
            .collect();
        assert_eq!(faults, vec![(FaultKind::Duplicate, 1)]);
        // The duplicate was charged twice, so two FrameSend events too.
        assert_eq!(rec.snapshot().frames_sent, 2);
    }

    #[test]
    fn faulty_runs_reproduce_per_seed() {
        let rates = FaultRates { drop: 0.4, corrupt: 0.3, ..FaultRates::none() };
        let plan = FaultPlan::symmetric(rates);
        let outcomes: Vec<Vec<Result<FrameBuf, ChannelError>>> = (0..2)
            .map(|_| {
                let (client, server) = Endpoint::pair_with_faults(&plan, 1234);
                (0..20u8)
                    .map(|i| {
                        client.send(vec![i; 8]);
                        server.recv_timeout(Duration::from_millis(5))
                    })
                    .collect()
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "same seed must reproduce the same faults");
    }
}
