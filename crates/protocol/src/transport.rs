//! The frame transport abstraction.
//!
//! Everything above this trait — the ARQ session layer, the pipelined
//! collection scheduler, the CLI — is written against [`Transport`]:
//! an ordered, frame-oriented duplex byte exchange with exact traffic
//! accounting and *mandatory deadlines* on every receive. Two backends
//! implement it:
//!
//! * the in-memory [`Endpoint`] pair (a client and a server on two
//!   threads: tests and examples),
//! * `msync-net`'s `TcpTransport` (a real socket).
//!
//! The contract every implementation must honour:
//!
//! 1. **Framing** — `send` transmits one frame; a successful
//!    `recv_timeout` returns exactly one frame's payload. Frames are
//!    never merged or split above the transport.
//! 2. **Bounded waits** — `recv_timeout` returns within (roughly) its
//!    deadline. A dead peer surfaces as [`ChannelError::Disconnected`],
//!    a silent one as [`ChannelError::Timeout`], damage as
//!    [`ChannelError::Corrupt`] — never a hang.
//! 3. **Honest accounting** — `stats()` reports every frame this side
//!    sent or received at its full wire size (LEB128 length word +
//!    CRC32 + payload, see [`crate::frame_wire_size`]), so the numbers
//!    can be cross-checked against bytes observed on a real socket.
//!
//! [`FaultTransport`] wraps any implementation with the fault injector,
//! so a real socket can be put through the same fault classes the
//! in-process [`VirtualLink`](crate::VirtualLink) injects.

use crate::bufpool::FrameBuf;
use crate::channel::{ChannelError, Endpoint, FrameError};
use crate::fault::{FaultInjector, FaultPlan, FaultRates, FrameFate};
use crate::stats::{PhaseSplit, TrafficStats};
use msync_trace::{DirTag, EventKind, FaultKind, Recorder};
use std::collections::VecDeque;
use std::time::Duration;

/// A frame-oriented duplex byte exchange (see the module docs for the
/// full contract). The session layer only ever holds `dyn Transport`,
/// so in-memory channels, fault wrappers, and real sockets compose
/// with the same ARQ recovery machinery.
pub trait Transport: Send {
    /// Send one frame carrying `payload`, charged across `split` at its
    /// full wire size. Errors are transport failures (a peer that is
    /// already gone); in-memory channels report those on the next
    /// receive instead and always return `Ok`.
    ///
    /// The payload arrives as a refcounted [`FrameBuf`]: a transport
    /// that needs to keep it (a delay fault, an output queue) shares it
    /// by refcount instead of copying the bytes.
    fn send(&mut self, payload: &FrameBuf, split: PhaseSplit) -> Result<(), ChannelError>;

    /// Receive the next frame's payload, waiting at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<FrameBuf, ChannelError>;

    /// Attribute the wire bytes of frames received since the last call
    /// across `split`. Transports that learn splits from the sender (the
    /// shared-stats in-memory channel) ignore this; a real socket
    /// cannot know a frame's phases until the session layer has parsed
    /// it, so the ARQ layer calls this after each successful parse.
    fn attribute_inbound(&mut self, split: PhaseSplit) {
        let _ = split;
    }

    /// Record `frames` retransmitted frames in the statistics (their
    /// bytes are charged by `send` like any other transmission).
    fn note_retransmits(&mut self, frames: u64);

    /// Snapshot of this side's traffic accounting.
    fn stats(&self) -> TrafficStats;

    /// The trace recorder attached to this transport (a disabled
    /// recorder by default). The session layer reads this to emit
    /// span events alongside the transport's own frame events.
    fn recorder(&self) -> Recorder {
        Recorder::off()
    }
}

impl Transport for Endpoint {
    fn send(&mut self, payload: &FrameBuf, split: PhaseSplit) -> Result<(), ChannelError> {
        self.set_phase(split);
        Endpoint::send(self, payload.share());
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<FrameBuf, ChannelError> {
        Endpoint::recv_timeout(self, timeout)
    }

    fn note_retransmits(&mut self, frames: u64) {
        Endpoint::note_retransmits(self, frames);
    }

    fn stats(&self) -> TrafficStats {
        Endpoint::stats(self)
    }

    fn recorder(&self) -> Recorder {
        Endpoint::recorder(self)
    }
}

/// A deterministic fault layer over any [`Transport`].
///
/// The [`VirtualLink`](crate::VirtualLink) injects faults *inside* the
/// in-process link; this wrapper injects the same fault classes *above*
/// an arbitrary transport, so a real TCP connection can be subjected to
/// the soak adversary too. Because the wrapper sits above the frame
/// codec (it sees payloads, not encoded wire bytes), the fault model is
/// expressed in receiver-visible effects:
///
/// * outbound `drop` / `corrupt` / `truncate` — the frame is swallowed
///   before it reaches the inner transport (an integrity fault below
///   the CRC would be rejected by the receiver and retransmitted, which
///   is externally indistinguishable from a loss);
/// * outbound `duplicate` — sent twice (both charged);
/// * outbound `delay` — held back and released ahead of the next send;
/// * inbound `drop` — the received frame is discarded and the receive
///   reports [`ChannelError::Timeout`];
/// * inbound `corrupt` / `truncate` — the frame is discarded and the
///   receive reports the matching [`ChannelError::Corrupt`];
/// * inbound `duplicate` — delivered again on the next receive;
/// * inbound `delay` — held back; delivered after the next frame, or on
///   a receive that would otherwise time out;
/// * `disconnect` — the link is cut: sends are swallowed and receives
///   report [`ChannelError::Disconnected`] from then on.
///
/// Frames swallowed before the inner transport are *not* charged to the
/// traffic stats (the bytes never existed on the wire), unlike the
/// virtual link, which models a sender that paid for lost frames.
pub struct FaultTransport<T: Transport> {
    inner: T,
    outbound: FaultInjector,
    inbound: FaultInjector,
    /// Trace direction of outbound frames (the inbound direction is
    /// its mirror). `new` assumes the client side; `client`/`server`
    /// set it explicitly.
    outbound_tag: DirTag,
    /// Frames ready for immediate delivery (duplicates, released
    /// delays) — shares, never copies.
    pending: VecDeque<FrameBuf>,
    /// Inbound frame held back by a delay fault.
    delayed: Option<FrameBuf>,
    /// Outbound frame (with its split) held back by a delay fault.
    held_out: Option<(FrameBuf, PhaseSplit)>,
    cut: bool,
}

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner` with explicit per-direction fault rates: `outbound`
    /// applies to frames this side sends, `inbound` to frames it
    /// receives. The two streams derive decorrelated PRNGs from `seed`.
    pub fn new(inner: T, outbound: FaultRates, inbound: FaultRates, seed: u64) -> Self {
        FaultTransport {
            inner,
            outbound: FaultInjector::new(outbound, seed),
            inbound: FaultInjector::new(inbound, seed ^ 0x9E37_79B9_7F4A_7C15),
            outbound_tag: DirTag::C2s,
            pending: VecDeque::new(),
            delayed: None,
            held_out: None,
            cut: false,
        }
    }

    /// Wrap the client side of a connection: outbound frames are
    /// client→server, inbound are server→client.
    pub fn client(inner: T, plan: &FaultPlan, seed: u64) -> Self {
        Self::new(inner, plan.c2s, plan.s2c, seed)
    }

    /// Wrap the server side of a connection.
    pub fn server(inner: T, plan: &FaultPlan, seed: u64) -> Self {
        let mut t = Self::new(inner, plan.s2c, plan.c2s, seed);
        t.outbound_tag = DirTag::S2c;
        t
    }

    /// Recover the wrapped transport (e.g. to read backend-specific
    /// counters after a session).
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn inbound_tag(&self) -> DirTag {
        match self.outbound_tag {
            DirTag::C2s => DirTag::S2c,
            DirTag::S2c => DirTag::C2s,
        }
    }
}

/// Emit one `FaultInjected` trace event per fault class set on `fate`,
/// in the injector's draw order, tagged with the injector's 1-based
/// frame sequence number. Shared by [`FaultTransport`] and the
/// [`VirtualLink`](crate::VirtualLink).
pub(crate) fn record_fate(rec: &Recorder, dir: DirTag, fate: &FrameFate, seq: u64) {
    if !rec.is_enabled() {
        return;
    }
    for (active, kind) in [
        (fate.disconnect, FaultKind::Disconnect),
        (fate.drop, FaultKind::Drop),
        (fate.corrupt, FaultKind::Corrupt),
        (fate.truncate, FaultKind::Truncate),
        (fate.duplicate, FaultKind::Duplicate),
        (fate.delay, FaultKind::Delay),
    ] {
        if active {
            rec.record(EventKind::FaultInjected { dir, kind, seq });
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&mut self, payload: &FrameBuf, split: PhaseSplit) -> Result<(), ChannelError> {
        if self.cut {
            return Ok(());
        }
        let fate = self.outbound.next_fate();
        record_fate(&self.inner.recorder(), self.outbound_tag, &fate, self.outbound.frames_seen());
        if fate.disconnect {
            self.cut = true;
            return Ok(());
        }
        // A held-back frame is released ahead of the new one.
        if let Some((held, held_split)) = self.held_out.take() {
            self.inner.send(&held, held_split)?;
        }
        if fate.drop || fate.corrupt || fate.truncate {
            // Swallowed: below-CRC damage is externally a loss.
            return Ok(());
        }
        if fate.duplicate {
            self.inner.send(payload, split)?;
        }
        if fate.delay {
            self.held_out = Some((payload.share(), split));
            return Ok(());
        }
        self.inner.send(payload, split)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<FrameBuf, ChannelError> {
        if self.cut {
            return Err(ChannelError::Disconnected);
        }
        if let Some(frame) = self.pending.pop_front() {
            return Ok(frame);
        }
        match self.inner.recv_timeout(timeout) {
            Ok(frame) => {
                let fate = self.inbound.next_fate();
                record_fate(
                    &self.inner.recorder(),
                    self.inbound_tag(),
                    &fate,
                    self.inbound.frames_seen(),
                );
                if fate.disconnect {
                    self.cut = true;
                    return Err(ChannelError::Disconnected);
                }
                if fate.drop {
                    return Err(ChannelError::Timeout);
                }
                if fate.corrupt {
                    return Err(ChannelError::Corrupt(FrameError::Checksum));
                }
                if fate.truncate {
                    return Err(ChannelError::Corrupt(FrameError::Truncated));
                }
                if fate.duplicate {
                    self.pending.push_back(frame.share());
                }
                if fate.delay {
                    if let Some(prev) = self.delayed.replace(frame) {
                        self.pending.push_back(prev);
                    }
                    return Err(ChannelError::Timeout);
                }
                // A frame that got through releases any delayed frame
                // *behind* it: that is the reordering.
                if let Some(d) = self.delayed.take() {
                    self.pending.push_back(d);
                }
                Ok(frame)
            }
            Err(ChannelError::Timeout) => match self.delayed.take() {
                // Nothing to reorder past: the delayed frame arrives.
                Some(frame) => Ok(frame),
                None => Err(ChannelError::Timeout),
            },
            Err(e) => Err(e),
        }
    }

    fn attribute_inbound(&mut self, split: PhaseSplit) {
        self.inner.attribute_inbound(split);
    }

    fn note_retransmits(&mut self, frames: u64) {
        self.inner.note_retransmits(frames);
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }

    fn recorder(&self) -> Recorder {
        self.inner.recorder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Phase;

    const TICK: Duration = Duration::from_millis(200);
    const BLINK: Duration = Duration::from_millis(10);

    fn pair() -> (Endpoint, Endpoint) {
        Endpoint::pair()
    }

    /// Tests build payloads from literals; production code shares
    /// existing `FrameBuf`s instead.
    fn fb(bytes: &[u8]) -> FrameBuf {
        FrameBuf::copy_from_slice(bytes)
    }

    #[test]
    fn endpoint_satisfies_the_trait() {
        let (mut c, mut s) = pair();
        let (ct, st): (&mut dyn Transport, &mut dyn Transport) = (&mut c, &mut s);
        ct.send(&fb(&[1, 2, 3]), Phase::Map.into()).unwrap();
        assert_eq!(st.recv_timeout(TICK).unwrap(), vec![1, 2, 3]);
        st.send(&fb(&[4]), Phase::Delta.into()).unwrap();
        assert_eq!(ct.recv_timeout(TICK).unwrap(), vec![4]);
        assert_eq!(ct.stats().roundtrips, 1);
    }

    #[test]
    fn clean_wrapper_is_transparent() {
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::client(c, &FaultPlan::none(), 7);
        wrapped.send(&fb(&[9; 32]), Phase::Setup.into()).unwrap();
        assert_eq!(Transport::recv_timeout(&mut s, TICK).unwrap(), vec![9; 32]);
        Transport::send(&mut s, &fb(&[1]), Phase::Setup.into()).unwrap();
        assert_eq!(wrapped.recv_timeout(TICK).unwrap(), vec![1]);
    }

    #[test]
    fn inbound_drop_reports_timeout() {
        let rates = FaultRates { drop: 1.0, ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, FaultRates::none(), rates, 1);
        Transport::send(&mut s, &fb(&[5; 8]), Phase::Map.into()).unwrap();
        assert_eq!(wrapped.recv_timeout(BLINK), Err(ChannelError::Timeout));
    }

    #[test]
    fn inbound_corruption_reports_typed_error() {
        let rates = FaultRates { corrupt: 1.0, ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, FaultRates::none(), rates, 2);
        Transport::send(&mut s, &fb(&[5; 8]), Phase::Map.into()).unwrap();
        assert!(matches!(wrapped.recv_timeout(TICK), Err(ChannelError::Corrupt(_))));
    }

    #[test]
    fn inbound_duplicate_delivered_twice() {
        let rates = FaultRates { duplicate: 1.0, ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, FaultRates::none(), rates, 3);
        Transport::send(&mut s, &fb(&[7; 4]), Phase::Map.into()).unwrap();
        assert_eq!(wrapped.recv_timeout(TICK).unwrap(), vec![7; 4]);
        assert_eq!(wrapped.recv_timeout(BLINK).unwrap(), vec![7; 4]);
    }

    #[test]
    fn inbound_delay_reorders_or_arrives_late() {
        let rates = FaultRates { delay: 1.0, ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, FaultRates::none(), rates, 4);
        Transport::send(&mut s, &fb(&[1]), Phase::Map.into()).unwrap();
        // Held back: first receive times out, second delivers it.
        assert_eq!(wrapped.recv_timeout(BLINK), Err(ChannelError::Timeout));
        assert_eq!(wrapped.recv_timeout(BLINK).unwrap(), vec![1]);
    }

    #[test]
    fn outbound_drop_swallows_frames() {
        let rates = FaultRates { drop: 1.0, ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, rates, FaultRates::none(), 5);
        wrapped.send(&fb(&[1; 16]), Phase::Map.into()).unwrap();
        assert_eq!(Transport::recv_timeout(&mut s, BLINK), Err(ChannelError::Timeout));
    }

    #[test]
    fn outbound_duplicate_sends_twice() {
        let rates = FaultRates { duplicate: 1.0, ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, rates, FaultRates::none(), 6);
        wrapped.send(&fb(&[2; 4]), Phase::Map.into()).unwrap();
        assert_eq!(Transport::recv_timeout(&mut s, TICK).unwrap(), vec![2; 4]);
        assert_eq!(Transport::recv_timeout(&mut s, TICK).unwrap(), vec![2; 4]);
    }

    #[test]
    fn disconnect_cuts_the_wrapper() {
        let rates = FaultRates { disconnect_after: Some(1), ..FaultRates::none() };
        let (c, mut s) = pair();
        let mut wrapped = FaultTransport::new(c, rates, FaultRates::none(), 7);
        wrapped.send(&fb(&[1]), Phase::Map.into()).unwrap();
        wrapped.send(&fb(&[2]), Phase::Map.into()).unwrap();
        assert_eq!(Transport::recv_timeout(&mut s, TICK).unwrap(), vec![1]);
        assert_eq!(wrapped.recv_timeout(BLINK), Err(ChannelError::Disconnected));
    }

    #[test]
    fn wrapper_reproduces_per_seed() {
        let rates = FaultRates { drop: 0.5, corrupt: 0.2, ..FaultRates::none() };
        let run = || {
            let (c, mut s) = pair();
            let mut wrapped = FaultTransport::new(c, FaultRates::none(), rates, 99);
            (0..16u8)
                .map(|i| {
                    Transport::send(&mut s, &fb(&[i; 4]), Phase::Map.into()).unwrap();
                    wrapped.recv_timeout(BLINK)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed must reproduce the same fates");
    }
}
