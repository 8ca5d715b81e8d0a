//! Sans-IO stop-and-wait ARQ.
//!
//! Over a real (possibly faulty) channel, each logical message is split
//! into frames carrying an ARQ header:
//!
//! ```text
//! varint message sequence number
//! varint part index within the message
//! 1 byte part header (bit 0 = more parts follow, bits 1..3 = phase)
//! payload bytes
//! ```
//!
//! Messages alternate strictly: the client owns even sequence numbers,
//! the server odd ones. Recovery is stop-and-wait, driven by whichever
//! side is waiting for a reply: after a receive deadline expires it
//! retransmits its whole last message; the peer deduplicates by sequence
//! number and answers a stale retransmission by resending its own cached
//! reply. Duplicated or reordered frames are idempotent (parts are
//! assembled by index), corrupt frames are dropped by the channel's CRC
//! and repaired by the same retransmission path, and every wait is
//! bounded by the `RetryPolicy`, so a dead peer surfaces as a typed
//! error — never a hang.
//!
//! `ArqCore` holds this logic with **no I/O and no clock**: callers
//! feed it received frames with an explicit `now_us` and drain queued
//! effects (frames to transmit, inbound bytes to attribute). Timeouts
//! exist only as an absolute deadline the caller is told to watch; the
//! deadline re-arms on *any* link activity (exactly like a fresh
//! blocking `recv_timeout` call per frame), and the retry/backoff
//! budget advances only when the caller lets a deadline expire.

use std::collections::VecDeque;
use std::time::Duration;

use msync_hash::{BitReader, BitWriter};
use msync_protocol::{BufferPool, FrameBuf, PhaseSplit, RetryPolicy};
use msync_trace::{EventKind, HistKind, Recorder};

use super::codec::{parse_part_header, part_header, split_of, Part, MAX_PARTS_PER_MESSAGE};
use super::{Output, SyncError};

/// Hard cap on frames processed while waiting for one message: a live
/// peer never legitimately approaches it, so exceeding it means the
/// link floods garbage faster than timeouts can fire.
pub(crate) const MAX_FRAMES_PER_EXCHANGE: u32 = 10_000;

/// A decoded ARQ frame.
pub(crate) struct ArqFrame {
    pub(crate) seq: u64,
    pub(crate) idx: usize,
    pub(crate) more: bool,
    pub(crate) part: Part,
}

pub(crate) fn parse_frame(frame: &FrameBuf) -> Option<ArqFrame> {
    let mut r = BitReader::new(frame);
    let seq = r.read_varint().ok()?;
    let idx = usize::try_from(r.read_varint().ok()?).ok()?;
    if idx >= MAX_PARTS_PER_MESSAGE {
        return None;
    }
    let header = r.read_bits(8).ok()? as u8;
    let (phase, more) = parse_part_header(header)?;
    // The varints and header byte are whole bytes, so the payload
    // starts byte-aligned — and a zero-copy view of the received frame
    // suffices: the part shares the frame's allocation.
    let consumed = frame.len() - r.remaining_bits() / 8;
    let payload = frame.slice(consumed, frame.len());
    Some(ArqFrame { seq, idx, more, part: Part { phase, payload } })
}

/// Encode one part as a wire frame: ARQ header bits followed by one
/// metered copy of the payload, appended to `buf` (a pool checkout or a
/// plain `Vec`, which the caller seals into a [`FrameBuf`]).
pub(crate) fn encode_arq_frame(
    mut buf: Vec<u8>,
    seq: u64,
    idx: usize,
    more: bool,
    part: &Part,
) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.write_varint(seq);
    w.write_varint(idx as u64);
    w.write_bits(u64::from(part_header(part.phase, more)), 8);
    let head = w.into_bytes();
    buf.reserve(head.len() + part.payload.len());
    buf.extend_from_slice(&head);
    msync_protocol::note_frame_copy(part.payload.len());
    buf.extend_from_slice(&part.payload);
    buf
}

pub(crate) fn micros_of(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One side's view of the stop-and-wait message exchange, sans-IO: the
/// same recovery machinery drives the in-memory channel, the fault
/// wrapper, a blocking TCP connection, and the nonblocking daemon
/// multiplexer.
pub(crate) struct ArqCore {
    retry: RetryPolicy,
    /// Sequence number of the next message this side sends (client
    /// even, server odd).
    send_seq: u64,
    /// Sequence number of the next message expected from the peer.
    recv_seq: u64,
    /// The last message sent, kept as encoded frames (with their
    /// accounting splits) for retransmission: a resend is a refcount
    /// bump of each cached [`FrameBuf`], never a re-encode.
    cached: Vec<(FrameBuf, PhaseSplit)>,
    /// Pool the encoded frames draw their buffers from (optional — the
    /// blocking one-shot drivers don't bother; the daemon multiplexer
    /// installs its shared pool via `set_pool`).
    pool: Option<BufferPool>,
    /// Whether a stale final frame from the peer triggers a resend of
    /// the cached message. Only the server answers stale frames: it is
    /// how a client retransmission gets its lost reply back. If both
    /// sides did this, one duplicated frame would echo resends back and
    /// forth indefinitely; the client's recovery driver is its receive
    /// deadline instead.
    resend_on_stale: bool,
    /// Trace recorder inherited from the driver, plus the send
    /// timestamp of the in-flight message for RTT measurement.
    rec: Recorder,
    last_send_us: u64,
    // ---- receive-in-progress state, reset by `begin_await` ----
    slots: Vec<Option<Part>>,
    final_idx: Option<usize>,
    /// Current per-attempt timeout (grows by backoff within one wait).
    timeout: Duration,
    attempts: u32,
    saw_corrupt: bool,
    frames: u32,
    deadline_us: u64,
    awaiting: bool,
    /// Queued effects (Transmit/Attribute only), drained by the owner.
    effects: VecDeque<Output>,
}

impl ArqCore {
    pub(crate) fn client(retry: RetryPolicy, rec: Recorder) -> Self {
        Self::new(retry, rec, 0, 1, false)
    }

    pub(crate) fn server(retry: RetryPolicy, rec: Recorder) -> Self {
        Self::new(retry, rec, 1, 0, true)
    }

    fn new(
        retry: RetryPolicy,
        rec: Recorder,
        send_seq: u64,
        recv_seq: u64,
        resend_on_stale: bool,
    ) -> Self {
        Self {
            retry,
            send_seq,
            recv_seq,
            cached: Vec::new(),
            pool: None,
            resend_on_stale,
            rec,
            last_send_us: 0,
            slots: Vec::new(),
            final_idx: None,
            timeout: retry.timeout,
            attempts: 0,
            saw_corrupt: false,
            frames: 0,
            deadline_us: 0,
            awaiting: false,
            effects: VecDeque::new(),
        }
    }

    pub(crate) fn retry(&self) -> RetryPolicy {
        self.retry
    }

    /// Draw encoded-frame buffers from `pool` from now on (frames
    /// already cached keep their original allocations).
    pub(crate) fn set_pool(&mut self, pool: BufferPool) {
        self.pool = Some(pool);
    }

    /// Encode one part into a pooled (or plain) buffer.
    fn encode_frame_buf(&self, seq: u64, idx: usize, more: bool, part: &Part) -> FrameBuf {
        match &self.pool {
            Some(p) => p.seal(encode_arq_frame(p.checkout(), seq, idx, more, part)),
            None => encode_arq_frame(Vec::new(), seq, idx, more, part).into(),
        }
    }

    pub(crate) fn recv_seq(&self) -> u64 {
        self.recv_seq
    }

    pub(crate) fn has_cached(&self) -> bool {
        !self.cached.is_empty()
    }

    pub(crate) fn next_effect(&mut self) -> Option<Output> {
        self.effects.pop_front()
    }

    pub(crate) fn has_effects(&self) -> bool {
        !self.effects.is_empty()
    }

    pub(crate) fn deadline_us(&self) -> u64 {
        self.deadline_us
    }

    /// Queue a whole logical message for transmission: each part is
    /// encoded exactly once, and the encoded frames are cached so a
    /// retransmission is a refcount bump, never a re-encode.
    pub(crate) fn send_message(&mut self, parts: Vec<Part>, now_us: u64) {
        let seq = self.send_seq;
        self.send_seq += 2;
        let n = parts.len();
        self.cached.clear();
        for (i, part) in parts.iter().enumerate() {
            let frame = self.encode_frame_buf(seq, i, i + 1 < n, part);
            let split = split_of(part);
            self.effects.push_back(Output::Transmit {
                frame: frame.share(),
                split,
                retransmit: false,
            });
            self.cached.push((frame, split));
        }
        self.last_send_us = now_us;
    }

    /// Queue the whole cached message again as recovery traffic — the
    /// identical encoded frames, shared by refcount.
    pub(crate) fn queue_retransmit(&mut self) {
        for (frame, split) in &self.cached {
            self.effects.push_back(Output::Transmit {
                frame: frame.share(),
                split: *split,
                retransmit: true,
            });
        }
        self.rec.record(EventKind::Retransmit { frames: self.cached.len() as u64 });
    }

    /// Queue an inbound-byte attribution (used by lingering machines
    /// that parse frames outside an active wait).
    pub(crate) fn queue_attribute(&mut self, split: PhaseSplit) {
        self.effects.push_back(Output::Attribute { split });
    }

    /// Start waiting for the peer's next message: fresh retry budget,
    /// fresh deadline.
    pub(crate) fn begin_await(&mut self, now_us: u64) {
        self.slots.clear();
        self.final_idx = None;
        self.timeout = self.retry.timeout;
        self.attempts = 0;
        self.saw_corrupt = false;
        self.frames = 0;
        self.deadline_us = now_us.saturating_add(micros_of(self.timeout));
        self.awaiting = true;
    }

    fn count_frame(&mut self, now_us: u64) -> Result<(), SyncError> {
        self.frames += 1;
        if self.frames > MAX_FRAMES_PER_EXCHANGE {
            return Err(SyncError::Desync("frame flood while awaiting message"));
        }
        // Any link activity re-arms the deadline: the blocking driver
        // gave every `recv_timeout` call a fresh full timeout.
        self.deadline_us = now_us.saturating_add(micros_of(self.timeout));
        Ok(())
    }

    /// Feed one received frame. Returns the assembled message once its
    /// final part is in; duplicates, stale retransmissions, and
    /// structurally invalid frames return `None`.
    pub(crate) fn on_frame(
        &mut self,
        bytes: &FrameBuf,
        now_us: u64,
    ) -> Result<Option<Vec<Part>>, SyncError> {
        self.count_frame(now_us)?;
        let Some(frame) = parse_frame(bytes) else {
            // CRC-clean but structurally invalid: treat like a corrupt
            // frame and let retransmission heal it. The unattributable
            // wire bytes pool in the transport and are charged to the
            // map phase by its `stats()`.
            self.saw_corrupt = true;
            return Ok(None);
        };
        // The transport cannot know an inbound frame's phases until the
        // ARQ header is parsed; attribute them now.
        self.queue_attribute(split_of(&frame.part));
        if frame.seq != self.recv_seq {
            // A stale frame means the peer missed our last message's
            // effect — on the server, when its final part shows up,
            // answer with the cached reply so the exchange moves again.
            // Future sequences (only possible via corruption) and stale
            // frames on the client are dropped.
            if self.resend_on_stale && frame.seq < self.recv_seq && !frame.more && self.has_cached()
            {
                self.queue_retransmit();
            }
            return Ok(None);
        }
        self.attempts = 0;
        if frame.idx >= self.slots.len() {
            self.slots.resize_with(frame.idx + 1, || None);
        }
        self.slots[frame.idx] = Some(frame.part);
        if !frame.more {
            self.final_idx = Some(frame.idx);
        }
        if let Some(last) = self.final_idx {
            if self.slots.len() > last && self.slots[..=last].iter().all(Option::is_some) {
                self.recv_seq += 2;
                self.slots.truncate(last + 1);
                self.awaiting = false;
                if self.rec.is_enabled() && self.has_cached() {
                    let rtt = now_us.saturating_sub(self.last_send_us);
                    self.rec.observe(HistKind::FrameRtt, rtt);
                }
                return Ok(Some(std::mem::take(&mut self.slots).into_iter().flatten().collect()));
            }
        }
        Ok(None)
    }

    /// Report a frame the transport rejected (CRC failure).
    pub(crate) fn on_corrupt(&mut self, now_us: u64) -> Result<(), SyncError> {
        self.count_frame(now_us)?;
        self.saw_corrupt = true;
        Ok(())
    }

    /// Advance the retry budget if the deadline has expired: count the
    /// attempt, retransmit the cached message, back off, re-arm. Exact
    /// mirror of one `Err(Timeout)` arm of the old blocking receive.
    ///
    /// # Errors
    /// [`SyncError::FrameCorrupt`] / [`SyncError::Timeout`] when the
    /// budget is exhausted.
    pub(crate) fn poll_deadline(&mut self, now_us: u64) -> Result<(), SyncError> {
        if !self.awaiting || now_us < self.deadline_us {
            return Ok(());
        }
        self.attempts += 1;
        self.rec.record(EventKind::Backoff {
            attempt: u64::from(self.attempts),
            timeout_us: micros_of(self.timeout),
        });
        if self.attempts > self.retry.max_retries {
            return Err(if self.saw_corrupt {
                SyncError::FrameCorrupt
            } else {
                SyncError::Timeout
            });
        }
        if self.has_cached() {
            self.queue_retransmit();
        }
        self.timeout = self.retry.backoff(self.timeout);
        self.deadline_us = now_us.saturating_add(micros_of(self.timeout));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msync_protocol::Phase;

    #[test]
    fn arq_frame_roundtrip_and_garbage_rejection() {
        let part = Part { phase: Phase::Map, payload: vec![1, 2, 3, 4].into() };
        let parsed = parse_frame(&encode_arq_frame(Vec::new(), 6, 1, true, &part).into()).unwrap();
        assert_eq!(parsed.seq, 6);
        assert_eq!(parsed.idx, 1);
        assert!(parsed.more);
        assert_eq!(parsed.part.payload, part.payload);
        assert_eq!(parsed.part.phase, Phase::Map);

        // Truncated header and absurd part indices are rejected, not
        // panicked on.
        assert!(parse_frame(&FrameBuf::default()).is_none());
        let mut w = BitWriter::new();
        w.write_varint(0);
        w.write_varint(u64::from(u32::MAX));
        w.write_bits(0, 8);
        assert!(parse_frame(&w.into_bytes().into()).is_none());
    }
}
